package obs

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"

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
	if got := r.Snapshot(); got != nil {
		t.Fatalf("nil recorder snapshot = %v, want nil", got)
	}
	if _, ok := r.Find("id"); ok {
		t.Fatal("nil recorder found an event")
	}
	if err := r.WriteNDJSON(io.Discard); err != nil {
		t.Fatalf("nil recorder WriteNDJSON: %v", err)
	}
}

func TestRecorderSeqAndEviction(t *testing.T) {
	withRecording(t)
	recorded, dropped := C("obs.events.recorded").Value(), C("obs.events.dropped").Value()
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
	if got := C("obs.events.recorded").Value() - recorded; got != 3 {
		t.Fatalf("obs.events.recorded rose by %d, want 3", got)
	}
	if got := C("obs.events.dropped").Value() - dropped; got != 1 {
		t.Fatalf("obs.events.dropped rose by %d, want 1", got)
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
	anomalous := C("obs.events.anomalous").Value()
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
	if got := C("obs.events.anomalous").Value() - anomalous; got != 1 {
		t.Fatalf("obs.events.anomalous rose by %d, want 1", got)
	}
}

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

func TestServeDebugEventsEndpoints(t *testing.T) {
	testutil.VerifyNoLeaks(t) // pins that Close joins the Serve goroutine
	// The default client's keep-alive connections are ours, not the
	// server's; drop them before the leak diff runs.
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	withRecording(t)
	rec := NewRecorder(8)
	SetRecorder(rec)
	t.Cleanup(func() { SetRecorder(nil) })

	rec.Record(Event{Name: "detect", TraceID: "abc-1", Verdict: "benign"})

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

	// With the recorder uninstalled the endpoint 404s rather than serving
	// an empty stream.
	SetRecorder(nil)
	if code, _ = get("/debug/events"); code != http.StatusNotFound {
		t.Fatalf("uninstalled recorder = %d, want 404", code)
	}
}
