package obs

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"decamouflage/internal/testutil"
)

func TestRingBuf(t *testing.T) {
	r := newRingBuf[int](3)
	if got := r.size(); got != 0 {
		t.Fatalf("empty size = %d, want 0", got)
	}
	if r.push(1) || r.push(2) || r.push(3) {
		t.Fatal("push evicted before the ring was full")
	}
	if got := r.snapshot(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("snapshot = %v, want [1 2 3]", got)
	}
	if !r.push(4) {
		t.Fatal("push into a full ring did not evict")
	}
	if got := r.snapshot(); len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Fatalf("snapshot after wrap = %v, want [2 3 4]", got)
	}
	// Capacity clamps to 1.
	one := newRingBuf[int](0)
	one.push(7)
	one.push(8)
	if got := one.snapshot(); len(got) != 1 || got[0] != 8 {
		t.Fatalf("capacity-1 snapshot = %v, want [8]", got)
	}
}

func TestRecorderNilReceiver(t *testing.T) {
	var r *Recorder
	if r.Active() {
		t.Fatal("nil recorder reports active")
	}
	r.Record(Event{Name: "x"}) // must not panic
	r.SetAnomalyOutput(io.Discard)
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil recorder snapshot = %v, want nil", got)
	}
	if _, ok := r.Find("id"); ok {
		t.Fatal("nil recorder found an event")
	}
	if r.Recorded() != 0 || r.Dropped() != 0 || r.Err() != nil {
		t.Fatal("nil recorder reports non-zero state")
	}
	if err := r.WriteNDJSON(io.Discard); err != nil {
		t.Fatalf("nil recorder WriteNDJSON: %v", err)
	}
}

func TestRecorderSeqAndEviction(t *testing.T) {
	withRecording(t)
	r := NewRecorder(2)
	if !r.Active() {
		t.Fatal("new recorder inactive")
	}
	r.Record(Event{Name: "a", TraceID: "t1"})
	r.Record(Event{Name: "b", TraceID: "t2"})
	r.Record(Event{Name: "c", TraceID: "t2"})
	evs := r.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("snapshot has %d events, want 2 (capacity)", len(evs))
	}
	if evs[0].Name != "b" || evs[1].Name != "c" {
		t.Fatalf("snapshot = %s,%s, want b,c (oldest evicted)", evs[0].Name, evs[1].Name)
	}
	if evs[0].Seq != 2 || evs[1].Seq != 3 {
		t.Fatalf("seqs = %d,%d, want 2,3", evs[0].Seq, evs[1].Seq)
	}
	if evs[0].UnixNs == 0 {
		t.Fatal("recorder did not stamp UnixNs")
	}
	if got := r.Recorded(); got != 3 {
		t.Fatalf("Recorded = %d, want 3", got)
	}
	if got := r.Dropped(); got != 1 {
		t.Fatalf("Dropped = %d, want 1", got)
	}
	// Find returns the most recent event for a trace.
	ev, ok := r.Find("t2")
	if !ok || ev.Name != "c" {
		t.Fatalf("Find(t2) = %+v,%v, want event c", ev, ok)
	}
	if _, ok := r.Find("t1"); ok {
		t.Fatal("Find located an evicted trace")
	}
	if _, ok := r.Find(""); ok {
		t.Fatal("Find matched the empty trace ID")
	}
}

func TestRecorderSlowTagging(t *testing.T) {
	withRecording(t)
	r := NewRecorder(64)
	// Warm the per-name average past the ewma warmup with ordinary 2ms
	// events, then record one far above mean and floor.
	for i := 0; i < 10; i++ {
		r.Record(Event{Name: "detect", DurNs: 2_000_000})
	}
	r.Record(Event{Name: "detect", DurNs: 100_000_000})
	evs := r.Snapshot()
	last := evs[len(evs)-1]
	found := false
	for _, a := range last.Anomalies {
		if a == AnomalySlow {
			found = true
		}
	}
	if !found {
		t.Fatalf("100ms outlier not tagged slow: %v", last.Anomalies)
	}
	for _, ev := range evs[:len(evs)-1] {
		if ev.Anomalous() {
			t.Fatalf("ordinary event tagged anomalous: %v", ev.Anomalies)
		}
	}
}

func TestRecorderAnomalyDump(t *testing.T) {
	withRecording(t)
	r := NewRecorder(8)
	var buf bytes.Buffer
	r.SetAnomalyOutput(&buf)
	r.Record(Event{Name: "ok"})
	if buf.Len() != 0 {
		t.Fatalf("ordinary event written to anomaly output: %q", buf.String())
	}
	r.Record(Event{Name: "bad", Err: "boom", Anomalies: []string{AnomalyError}})
	line := buf.String()
	if !strings.Contains(line, `"err":"boom"`) || !strings.Contains(line, AnomalyError) {
		t.Fatalf("anomaly dump missing fields: %q", line)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("recorder reports writer error on healthy writer: %v", err)
	}
	// First writer error sticks and stops further writes.
	r.SetAnomalyOutput(failWriter{})
	r.Record(Event{Name: "bad2", Anomalies: []string{AnomalyError}})
	if r.Err() == nil {
		t.Fatal("failed anomaly write not reported")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("sink failed") }

func TestEventsGlobalInstall(t *testing.T) {
	if compiledOut {
		t.Skip("observability compiled out (noobs)")
	}
	if Events().Active() {
		t.Fatal("recorder installed at test start")
	}
	r := NewRecorder(4)
	SetRecorder(r)
	t.Cleanup(func() { SetRecorder(nil) })
	if Events() != r {
		t.Fatal("Events does not return the installed recorder")
	}
	SetRecorder(nil)
	if Events().Active() {
		t.Fatal("uninstall did not clear the recorder")
	}
}

func TestTraceIDPropagation(t *testing.T) {
	withRecording(t)
	if got := TraceID(context.Background()); got != "" {
		t.Fatalf("untraced context has trace ID %q", got)
	}
	ctx, tr := WithTrace(context.Background(), "req")
	if tr.ID() == "" {
		t.Fatal("trace has empty ID")
	}
	if got := TraceID(ctx); got != tr.ID() {
		t.Fatalf("TraceID(ctx) = %q, want %q", got, tr.ID())
	}
	sctx, sp := StartSpan(ctx, "child")
	if sp.tid != tr.ID() {
		t.Fatalf("child span tid = %q, want %q", sp.tid, tr.ID())
	}
	if got := TraceID(sctx); got != tr.ID() {
		t.Fatalf("TraceID under child = %q, want %q", got, tr.ID())
	}
	_, tr2 := WithTrace(context.Background(), "req")
	if tr2.ID() == tr.ID() {
		t.Fatalf("two traces share ID %q", tr.ID())
	}
	var nilTr *Trace
	if nilTr.ID() != "" {
		t.Fatal("nil trace has an ID")
	}
}

func TestFlattenSpans(t *testing.T) {
	withRecording(t)
	ctx, tr := WithTrace(context.Background(), "root")
	ctx1, a := StartSpan(ctx, "a")
	a.AttrInt("n", 7)
	_, b := StartSpan(ctx1, "b")
	b.End()
	a.End()
	_, c := StartSpan(ctx, "c")
	c.End()
	tr.End()

	flat := FlattenSpans(tr.Root())
	names := make([]string, len(flat))
	for i, s := range flat {
		names[i] = s.Name
	}
	want := []string{"root", "a", "b", "c"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("pre-order = %v, want %v", names, want)
		}
	}
	if flat[0].Depth != 0 || flat[1].Depth != 1 || flat[2].Depth != 2 || flat[3].Depth != 1 {
		t.Fatalf("depths wrong: %+v", flat)
	}
	if flat[1].Attrs["n"] != "7" {
		t.Fatalf("attrs not flattened: %+v", flat[1])
	}
	if flat[0].OffsetNs != 0 {
		t.Fatalf("root offset = %d, want 0", flat[0].OffsetNs)
	}
	for _, s := range flat[1:] {
		if s.OffsetNs < 0 {
			t.Fatalf("span %s starts before root: %d", s.Name, s.OffsetNs)
		}
		if s.DurNs > flat[0].DurNs {
			t.Fatalf("span %s (%dns) outlives root (%dns)", s.Name, s.DurNs, flat[0].DurNs)
		}
	}
	if FlattenSpans(nil) != nil {
		t.Fatal("FlattenSpans(nil) != nil")
	}
}

// fakeTrace fabricates a finished single-span trace with a fixed duration,
// so tail-sampler decisions are deterministic.
func fakeTrace(name, tid string, d time.Duration) *Trace {
	return &Trace{root: &Span{
		name:  name,
		tid:   tid,
		start: time.Now().Add(-d),
		dur:   d,
		ended: true,
	}}
}

func TestTailSamplerNilAndDisabled(t *testing.T) {
	var s *TailSampler
	if s.Active() {
		t.Fatal("nil sampler active")
	}
	if _, kept := s.Offer(fakeTrace("x", "t", time.Millisecond), nil); kept {
		t.Fatal("nil sampler kept a trace")
	}
	if s.Snapshot() != nil || s.Offered() != 0 || s.Kept() != 0 {
		t.Fatal("nil sampler reports state")
	}
	if err := s.WriteNDJSON(io.Discard); err != nil {
		t.Fatalf("nil sampler WriteNDJSON: %v", err)
	}
}

func TestTailSamplerRetention(t *testing.T) {
	withRecording(t)
	s := NewTailSampler(16, 0)

	// First offer per name sets the record.
	reason, kept := s.Offer(fakeTrace("req", "t1", 2*time.Millisecond), nil)
	if !kept || reason != KeepRecord {
		t.Fatalf("first offer = %q,%v, want record,true", reason, kept)
	}
	// A strictly slower trace beats the record.
	reason, kept = s.Offer(fakeTrace("req", "t2", 4*time.Millisecond), nil)
	if !kept || reason != KeepRecord {
		t.Fatalf("slower offer = %q,%v, want record,true", reason, kept)
	}
	// A trace within 1% of the record still counts as the record holder
	// (tolerates the two-clock skew between histogram and span durations).
	reason, kept = s.Offer(fakeTrace("req", "t3", 4*time.Millisecond-time.Microsecond), nil)
	if !kept || reason != KeepRecord {
		t.Fatalf("near-tie offer = %q,%v, want record,true", reason, kept)
	}
	// An ordinary faster trace with sampling off is discarded.
	if reason, kept = s.Offer(fakeTrace("req", "t4", time.Millisecond), nil); kept {
		t.Fatalf("ordinary offer kept as %q", reason)
	}
	// Errors always keep.
	reason, kept = s.Offer(fakeTrace("req", "t5", time.Millisecond), errors.New("boom"))
	if !kept || reason != KeepError {
		t.Fatalf("errored offer = %q,%v, want error,true", reason, kept)
	}
	// Adaptive slow: under a separate name, pin the record high with one
	// 10ms trace, then feed 1ms traces past the ewma warmup so the mean
	// settles under 2ms. A 6ms trace is then no record (below 99% of
	// 10ms) but more than three times the mean: kept as slow.
	s.Offer(fakeTrace("warm", "wmax", 10*time.Millisecond), nil)
	for i := 0; i < 12; i++ {
		if _, kept := s.Offer(fakeTrace("warm", "w", time.Millisecond), nil); kept {
			t.Fatal("ordinary warmup trace kept")
		}
	}
	reason, kept = s.Offer(fakeTrace("warm", "wslow", 6*time.Millisecond), nil)
	if !kept || reason != KeepSlow {
		t.Fatalf("6ms over a ~1.7ms mean = %q,%v, want slow,true", reason, kept)
	}

	if got := s.Kept(); got != 6 {
		t.Fatalf("Kept = %d, want 6", got)
	}
	if got := s.Offered(); got != 19 {
		t.Fatalf("Offered = %d, want 19", got)
	}
	rt, ok := s.Find("t5")
	if !ok || rt.Err != "boom" || rt.Reason != KeepError {
		t.Fatalf("Find(t5) = %+v,%v", rt, ok)
	}
	if len(rt.Spans) != 1 || rt.Spans[0].Name != "req" {
		t.Fatalf("retained trace spans = %+v", rt.Spans)
	}
	if _, ok := s.Find("t4"); ok {
		t.Fatal("discarded trace was retained")
	}
}

func TestTailSamplerProbabilistic(t *testing.T) {
	withRecording(t)
	s := NewTailSampler(256, 1) // sample=1: every ordinary trace keeps
	s.Offer(fakeTrace("req", "first", 2*time.Millisecond), nil)
	reason, kept := s.Offer(fakeTrace("req", "t", time.Millisecond), nil)
	if !kept || reason != KeepSampled {
		t.Fatalf("sample=1 ordinary offer = %q,%v, want sampled,true", reason, kept)
	}
	// Sample clamps to [0,1]; the clamp assigns the literal bound, so
	// exact comparison is the intended check.
	if sp := NewTailSampler(1, 7).sample; !testutil.BitEqual(sp, 1) {
		t.Fatalf("sample 7 clamped to %v, want 1", sp)
	}
	if sp := NewTailSampler(1, -3).sample; !testutil.BitEqual(sp, 0) {
		t.Fatalf("sample -3 clamped to %v, want 0", sp)
	}
}

func TestTailGlobalInstall(t *testing.T) {
	if compiledOut {
		t.Skip("observability compiled out (noobs)")
	}
	s := NewTailSampler(4, 0)
	SetTailSampler(s)
	t.Cleanup(func() { SetTailSampler(nil) })
	if Tail() != s {
		t.Fatal("Tail does not return the installed sampler")
	}
	SetTailSampler(nil)
	if Tail().Active() {
		t.Fatal("uninstall did not clear the sampler")
	}
}

func TestWatchdogSample(t *testing.T) {
	testutil.VerifyNoLeaks(t) // pins that every watchdog's loop exits
	withRecording(t)
	rec := NewRecorder(16)
	SetRecorder(rec)
	t.Cleanup(func() { SetRecorder(nil) })

	// A huge interval keeps the background loop idle so the test can call
	// sample directly and deterministically.
	w := StartWatchdog(WatchdogConfig{Interval: time.Hour, MaxGoroutines: 1})
	t.Cleanup(w.Stop)

	w.sample(0)
	if got := w.goroutines.Value(); got <= 1 {
		t.Fatalf("goroutine gauge = %d, want > 1", got)
	}
	if w.heapAlloc.Value() <= 0 || w.heapSys.Value() <= 0 {
		t.Fatal("heap gauges not sampled")
	}
	evs := rec.Snapshot()
	if len(evs) != 1 {
		t.Fatalf("crossings recorded %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Name != "watchdog" || len(ev.Anomalies) < 2 || ev.Anomalies[0] != AnomalyWatchdog {
		t.Fatalf("watchdog event = %+v", ev)
	}
	crossedGoroutines := false
	for _, a := range ev.Anomalies {
		if a == "goroutines-high" {
			crossedGoroutines = true
		}
	}
	if !crossedGoroutines {
		t.Fatalf("goroutines-high not in anomalies: %v", ev.Anomalies)
	}
	if ev.Values["goroutines"] <= 1 {
		t.Fatalf("event values missing goroutine sample: %v", ev.Values)
	}

	// Edge-triggered: the still-crossed state records no second event.
	w.sample(0)
	if got := len(rec.Snapshot()); got != 1 {
		t.Fatalf("sustained crossing recorded %d events, want 1", got)
	}

	var nilW *Watchdog
	nilW.Stop() // must not panic

	// Stop joins the sampling loop: across repeated start/stop cycles,
	// some stopping an idle loop and some a loop that has been ticking,
	// w.done is already closed when Stop returns. VerifyNoLeaks alone
	// cannot see a Stop that forgets the join, because the loop still
	// exits soon after.
	for i := 0; i < 20; i++ {
		c := StartWatchdog(WatchdogConfig{Interval: 10 * time.Millisecond})
		if i%4 == 0 {
			time.Sleep(15 * time.Millisecond)
		}
		c.Stop()
		select {
		case <-c.done:
		default:
			t.Fatalf("cycle %d: Stop returned before the sampling loop exited", i)
		}
	}
}

func TestServeDebugEventsEndpoints(t *testing.T) {
	testutil.VerifyNoLeaks(t) // pins that Close joins the Serve goroutine
	// The default client's keep-alive connections are ours, not the
	// server's; drop them before the leak diff runs.
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	withRecording(t)
	rec := NewRecorder(8)
	SetRecorder(rec)
	t.Cleanup(func() { SetRecorder(nil) })
	ts := NewTailSampler(8, 0)
	SetTailSampler(ts)
	t.Cleanup(func() { SetTailSampler(nil) })

	rec.Record(Event{Name: "detect", TraceID: "abc-1", Verdict: "benign"})
	ts.Offer(fakeTrace("req", "abc-1", 2*time.Millisecond), nil)

	d, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + d.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/debug/events")
	if code != http.StatusOK || !strings.Contains(body, `"name":"detect"`) {
		t.Fatalf("/debug/events = %d %q", code, body)
	}
	code, body = get("/debug/events?trace=abc-1")
	if code != http.StatusOK || !strings.Contains(body, `"trace_id":"abc-1"`) {
		t.Fatalf("/debug/events?trace = %d %q", code, body)
	}
	if code, _ = get("/debug/events?trace=nope"); code != http.StatusNotFound {
		t.Fatalf("unknown trace = %d, want 404", code)
	}
	code, body = get("/debug/traces")
	if code != http.StatusOK || !strings.Contains(body, `"id":"abc-1"`) {
		t.Fatalf("/debug/traces = %d %q", code, body)
	}
	code, body = get("/debug/traces?id=abc-1")
	if code != http.StatusOK || !strings.Contains(body, `"reason":"record"`) {
		t.Fatalf("/debug/traces?id = %d %q", code, body)
	}

	// With the recorder uninstalled the endpoint 404s rather than serving
	// an empty stream.
	SetRecorder(nil)
	if code, _ = get("/debug/events"); code != http.StatusNotFound {
		t.Fatalf("uninstalled recorder = %d, want 404", code)
	}
	SetTailSampler(nil)
	if code, _ = get("/debug/traces"); code != http.StatusNotFound {
		t.Fatalf("uninstalled sampler = %d, want 404", code)
	}
}
