package detect

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/obs"
	"decamouflage/internal/testutil"
)

func TestNearThreshold(t *testing.T) {
	cases := []struct {
		score float64
		th    Threshold
		want  bool
	}{
		// Threshold 100: band is 5% of the magnitude = +/-5.
		{score: 100, th: Threshold{Value: 100, Direction: Above}, want: true},
		{score: 95, th: Threshold{Value: 100, Direction: Above}, want: true},
		{score: 105, th: Threshold{Value: 100, Direction: Above}, want: true},
		{score: 94.9, th: Threshold{Value: 100, Direction: Above}, want: false},
		{score: 105.1, th: Threshold{Value: 100, Direction: Above}, want: false},
		// Near-zero threshold: the unit floor keeps the band at +/-0.05
		// instead of collapsing with the magnitude.
		{score: 0.14, th: Threshold{Value: 0.1, Direction: Below}, want: true},
		{score: 0.16, th: Threshold{Value: 0.1, Direction: Below}, want: false},
		{score: 0.05, th: Threshold{Value: 0, Direction: Above}, want: true},
		// NaN never counts as borderline.
		{score: math.NaN(), th: Threshold{Value: 100, Direction: Above}, want: false},
	}
	for _, c := range cases {
		if got := nearThreshold(c.score, c.th); got != c.want {
			t.Errorf("nearThreshold(%v, %+v) = %v, want %v", c.score, c.th, got, c.want)
		}
	}
}

func TestJSONSafe(t *testing.T) {
	// The clamp returns exact sentinel constants, so bit equality is the
	// intended comparison.
	if got := jsonSafe(math.NaN()); !testutil.BitEqual(got, 0) {
		t.Errorf("jsonSafe(NaN) = %v, want 0", got)
	}
	if got := jsonSafe(math.Inf(1)); !testutil.BitEqual(got, math.MaxFloat64) {
		t.Errorf("jsonSafe(+Inf) = %v, want MaxFloat64", got)
	}
	if got := jsonSafe(math.Inf(-1)); !testutil.BitEqual(got, -math.MaxFloat64) {
		t.Errorf("jsonSafe(-Inf) = %v, want -MaxFloat64", got)
	}
	if got := jsonSafe(42.5); !testutil.BitEqual(got, 42.5) {
		t.Errorf("jsonSafe(42.5) = %v, want passthrough", got)
	}
}

// eventTestSession installs a fresh recorder (and enables metrics) for one
// test, skipping under noobs.
func eventTestSession(t *testing.T) *obs.Recorder {
	t.Helper()
	obs.Enable()
	t.Cleanup(obs.Disable)
	if !obs.Enabled() {
		t.Skip("observability compiled out (noobs)")
	}
	rec := obs.NewRecorder(64)
	obs.SetRecorder(rec)
	t.Cleanup(func() { obs.SetRecorder(nil) })
	return rec
}

// TestDetectEmitsWideEvent pins the wide event one Detect call records
// when a flight recorder is installed: trace ID, geometry, verdict and
// per-method boundaries, stage attribution from the span tree, and memo
// accounting — and that the event is found under its trace ID, the key
// latency-histogram exemplars carry.
func TestDetectEmitsWideEvent(t *testing.T) {
	rec := eventTestSession(t)
	e := obsTestEnsemble(t)

	v, err := e.Detect(context.Background(), obsTestImage(t, 32, 32))
	if err != nil {
		t.Fatal(err)
	}
	evs := rec.Snapshot()
	if len(evs) != 1 {
		t.Fatalf("recorded %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.TraceID == "" {
		t.Fatal("event has no trace ID")
	}
	if ev.Name != "ensemble.detect" {
		t.Fatalf("event name = %q", ev.Name)
	}
	if ev.W != 32 || ev.H != 32 || ev.C != 1 {
		t.Fatalf("event geometry = %dx%dx%d, want 32x32x1", ev.W, ev.H, ev.C)
	}
	if ev.DurNs <= 0 || ev.UnixNs == 0 {
		t.Fatalf("event not timed: dur=%d unix=%d", ev.DurNs, ev.UnixNs)
	}
	wantVerdict := "benign"
	if v.Attack {
		wantVerdict = "attack"
	}
	if ev.Verdict != wantVerdict || ev.Votes != v.Votes {
		t.Fatalf("event verdict = %q/%d, want %q/%d", ev.Verdict, ev.Votes, wantVerdict, v.Votes)
	}
	if len(ev.Methods) != 3 {
		t.Fatalf("event has %d methods, want 3", len(ev.Methods))
	}
	for i, m := range ev.Methods {
		if m.Method != v.Verdicts[i].Method {
			t.Errorf("method %d name = %q, want %q", i, m.Method, v.Verdicts[i].Method)
		}
		if m.Direction == "" {
			t.Errorf("method %q missing threshold direction", m.Method)
		}
		if m.Margin < 0 {
			t.Errorf("method %q margin = %v, want >= 0", m.Method, m.Margin)
		}
		if m.Attack != v.Verdicts[i].Attack {
			t.Errorf("method %q attack = %v, want %v", m.Method, m.Attack, v.Verdicts[i].Attack)
		}
	}

	// Per-stage latency attribution comes from the span tree: the root
	// stage is the detect span itself, and every stage fits inside the
	// event's total duration.
	if len(ev.Stages) == 0 {
		t.Fatal("event has no stage durations")
	}
	if ev.Stages[0].Name != "ensemble.detect" || ev.Stages[0].Depth != 0 {
		t.Fatalf("stage root = %+v, want ensemble.detect at depth 0", ev.Stages[0])
	}
	for _, sd := range ev.Stages {
		if sd.OffsetNs < 0 || sd.DurNs < 0 {
			t.Errorf("stage %q has negative timing: %+v", sd.Name, sd)
		}
		if sd.DurNs > ev.DurNs {
			t.Errorf("stage %q dur %d exceeds event total %d", sd.Name, sd.DurNs, ev.DurNs)
		}
	}
	if ev.MemoMisses <= 0 {
		t.Errorf("event memo misses = %d, want > 0 on a cold image", ev.MemoMisses)
	}

	// The latency histogram pinned an exemplar for the traced observation;
	// a pinned exemplar always carries a trace ID, and a trace ID finds
	// its event.
	ex := obs.H("detect.ensemble.seconds").Exemplars()
	if len(ex) == 0 {
		t.Fatal("detect.ensemble.seconds has no exemplars after a traced detect")
	}
	for _, x := range ex {
		if x.TraceID == "" {
			t.Errorf("exemplar without trace ID: %+v", x)
		}
	}
	if found, ok := rec.Find(ev.TraceID); !ok || found.Seq != ev.Seq {
		t.Fatalf("Find(%q) = %+v,%v, want event %d", ev.TraceID, found, ok, ev.Seq)
	}

	// The wide event must marshal as-is: that is the NDJSON dump contract.
	if _, err := json.Marshal(ev); err != nil {
		t.Fatalf("event does not marshal: %v", err)
	}
}

// TestDetectEventCallerOwnedTrace: a caller that already traced the
// context keeps ownership — the event reuses the caller's trace ID and the
// ensemble does not release the caller's trace.
func TestDetectEventCallerOwnedTrace(t *testing.T) {
	rec := eventTestSession(t)
	e := obsTestEnsemble(t)

	ctx, tr := obs.WithTrace(context.Background(), "caller")
	if _, err := e.Detect(ctx, obsTestImage(t, 32, 32)); err != nil {
		t.Fatal(err)
	}
	ev, ok := rec.Find(tr.ID())
	if !ok {
		t.Fatalf("no event under the caller's trace ID %q", tr.ID())
	}
	if ev.Name != "ensemble.detect" {
		t.Fatalf("event name = %q", ev.Name)
	}
	if tr.ID() == "" || tr.Root() == nil {
		t.Fatal("ensemble released the caller-owned trace")
	}
	// The caller's tree still holds the detect stage, live until End.
	stages := obs.FlattenSpans(tr.Root())
	if len(stages) < 2 || stages[0].Name != "caller" || stages[1].Name != "ensemble.detect" {
		t.Fatalf("caller trace = %+v, want caller > ensemble.detect", stages)
	}
	tr.End()
	tr.Release()
}

// TestDetectEventError: a failing member produces an event with the error
// string, the error anomaly tag and the stage tree of the failed request,
// and the event survives the NDJSON dump.
func TestDetectEventError(t *testing.T) {
	rec := eventTestSession(t)

	d, err := NewDetector(&stubScorer{name: "boom/metric", err: errors.New("boom")},
		Threshold{Value: 1, Direction: Above})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEnsemble(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Detect(context.Background(), obsTestImage(t, 8, 8)); err == nil {
		t.Fatal("Detect over a failing scorer succeeded")
	}
	ev := rec.Snapshot()[0]
	if !strings.Contains(ev.Err, "boom") {
		t.Fatalf("event err = %q, want the scorer error", ev.Err)
	}
	if !hasAnomaly(ev, obs.AnomalyError) {
		t.Fatalf("event anomalies = %v, want %q", ev.Anomalies, obs.AnomalyError)
	}
	if ev.Verdict != "" || len(ev.Methods) != 0 {
		t.Fatalf("errored event carries a verdict: %+v", ev)
	}
	if len(ev.Stages) == 0 || ev.Stages[0].Name != "ensemble.detect" {
		t.Fatalf("errored event stages = %+v, want the ensemble.detect tree", ev.Stages)
	}
	var dump bytes.Buffer
	if err := rec.WriteNDJSON(&dump); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dump.String(), `"err":"boom/metric: boom"`) {
		t.Fatalf("event dump missing the errored event: %q", dump.String())
	}
}

// TestDetectEventNearThreshold: a verdict inside the 5% boundary band is
// tagged near-threshold; a comfortable margin is not.
func TestDetectEventNearThreshold(t *testing.T) {
	rec := eventTestSession(t)

	near, err := NewDetector(&stubScorer{name: "near/metric", score: 5},
		Threshold{Value: 5.1, Direction: Above})
	if err != nil {
		t.Fatal(err)
	}
	far, err := NewDetector(&stubScorer{name: "far/metric", score: 5},
		Threshold{Value: 100, Direction: Above})
	if err != nil {
		t.Fatal(err)
	}

	e1, err := NewEnsemble(near)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Detect(context.Background(), obsTestImage(t, 8, 8)); err != nil {
		t.Fatal(err)
	}
	if ev := rec.Snapshot()[0]; !hasAnomaly(ev, obs.AnomalyNearThreshold) {
		t.Fatalf("borderline verdict not tagged: anomalies = %v", ev.Anomalies)
	}

	e2, err := NewEnsemble(far)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Detect(context.Background(), obsTestImage(t, 8, 8)); err != nil {
		t.Fatal(err)
	}
	evs := rec.Snapshot()
	if ev := evs[len(evs)-1]; hasAnomaly(ev, obs.AnomalyNearThreshold) {
		t.Fatalf("comfortable margin tagged near-threshold: %+v", ev)
	}
}

// TestDetectBatchEmitsPerImageEvents: a batch records one wide event per
// image, each under its own trace.
func TestDetectBatchEmitsPerImageEvents(t *testing.T) {
	rec := eventTestSession(t)
	e := obsTestEnsemble(t)

	imgs := []*imgcore.Image{
		obsTestImage(t, 32, 32), obsTestImage(t, 32, 32), obsTestImage(t, 32, 32),
	}
	if _, err := e.DetectBatch(context.Background(), imgs); err != nil {
		t.Fatal(err)
	}
	evs := rec.Snapshot()
	if len(evs) != len(imgs) {
		t.Fatalf("batch of %d recorded %d events", len(imgs), len(evs))
	}
	ids := make(map[string]bool, len(evs))
	for _, ev := range evs {
		if ev.TraceID == "" {
			t.Fatalf("batch event without trace ID: %+v", ev)
		}
		ids[ev.TraceID] = true
	}
	if len(ids) != len(imgs) {
		t.Fatalf("batch events share trace IDs: %d distinct of %d", len(ids), len(imgs))
	}
}

// TestDetectWithoutRecorder: no recorder installed means no tracing and
// no events — the metrics-only path. The detect is still observed, but
// untraced, so it pins no exemplar.
func TestDetectWithoutRecorder(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	if !obs.Enabled() {
		t.Skip("observability compiled out (noobs)")
	}
	h := obs.H("detect.ensemble.seconds")
	count, exemplars := h.Count(), h.Exemplars()

	e := obsTestEnsemble(t)
	if _, err := e.Detect(context.Background(), obsTestImage(t, 32, 32)); err != nil {
		t.Fatal(err)
	}
	if got := h.Count() - count; got != 1 {
		t.Fatalf("recorder-less detect observed %d times, want 1", got)
	}
	if got := h.Exemplars(); !reflect.DeepEqual(got, exemplars) {
		t.Fatalf("recorder-less detect pinned an exemplar: %+v, was %+v", got, exemplars)
	}
}

func hasAnomaly(ev obs.Event, tag string) bool {
	for _, a := range ev.Anomalies {
		if a == tag {
			return true
		}
	}
	return false
}
