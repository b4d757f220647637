//go:build noobs

package obs

import (
	"context"
	"io"
	"testing"
	"time"
)

// TestNoobsStubsReturnNil pins the compiled-out surface of the v2
// observability layer: every constructor returns nil, every global
// accessor returns an inactive no-op receiver, and Apply/Close still work.
func TestNoobsStubsReturnNil(t *testing.T) {
	if r := NewRecorder(16); r != nil {
		t.Fatal("NewRecorder != nil under noobs")
	}
	SetRecorder(NewRecorder(1))
	if Events().Active() {
		t.Fatal("Events().Active() under noobs")
	}
	ctx, tr := WithTrace(context.Background(), "req")
	if tr != nil {
		t.Fatal("WithTrace returned a trace under noobs")
	}
	if id := TraceID(ctx); id != "" {
		t.Fatalf("TraceID = %q under noobs", id)
	}
	if fs := FlattenSpans(tr.Root()); fs != nil {
		t.Fatal("FlattenSpans returned spans under noobs")
	}
	sess, err := Settings{EventsOut: "-", EventBuffer: 4}.Apply()
	if err != nil {
		t.Fatal(err)
	}
	if Events().Active() || Enabled() {
		t.Fatal("session installed components under noobs")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNoobsEventPathAllocsNothing is the compile-out guarantee in numbers:
// the entire per-image recording path — guard, trace open, record, trace
// inspection, trace end and release — must not allocate a single byte
// when observability is compiled out.
func TestNoobsEventPathAllocsNothing(t *testing.T) {
	rec := Events()
	ctx := context.Background()
	ev := Event{Name: "detect", DurNs: int64(time.Millisecond)}
	allocs := testing.AllocsPerRun(100, func() {
		tctx, tr := WithTrace(ctx, "detect")
		if rec.Active() {
			rec.Record(ev)
		}
		if id := TraceID(tctx); id != "" {
			panic("traced under noobs")
		}
		tr.End()
		tr.Release()
		var h *Histogram
		h.ObserveTraced(time.Millisecond, "")
	})
	if allocs != 0 {
		t.Fatalf("noobs event path allocates %v per run, want 0", allocs)
	}
	if err := rec.WriteNDJSON(io.Discard); err != nil {
		t.Fatal(err)
	}
}
