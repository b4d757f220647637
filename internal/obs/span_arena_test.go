package obs

import (
	"context"
	"fmt"
	"testing"
)

// TestSpanArenaRecycling pins the release path the ensemble follows:
// the event's flattened copy is taken and recorded, Release detaches the
// trace, the recorded copy survives, and a recycled arena hands out
// clean spans with no attrs or children leaking from the previous trace.
func TestSpanArenaRecycling(t *testing.T) {
	if compiledOut {
		t.Skip("observability compiled out (noobs)")
	}
	rec := NewRecorder(8)

	ctx, tr := WithTrace(context.Background(), "req")
	_, sp := StartSpan(ctx, "child")
	sp.AttrString("k", "v")
	sp.End()
	tr.End()
	id := tr.ID()
	rec.Record(Event{Name: "req", TraceID: id, Stages: FlattenSpans(tr.Root())})

	tr.Release()
	if got := tr.ID(); got != "" {
		t.Errorf("released trace still has ID %q", got)
	}
	if tr.Root() != nil {
		t.Error("released trace still has a root")
	}
	tr.Release() // a second release is a no-op
	ev, ok := rec.Find(id)
	if !ok {
		t.Fatalf("recorded event %q not found", id)
	}
	if len(ev.Stages) != 2 || ev.Stages[1].Attrs["k"] != "v" {
		t.Errorf("recorded copy lost data: %+v", ev.Stages)
	}

	// A fresh trace (likely on the recycled arena) must start clean.
	ctx2, tr2 := WithTrace(context.Background(), "req2")
	_, sp2 := StartSpan(ctx2, "child2")
	sp2.End()
	tr2.End()
	spans := FlattenSpans(tr2.Root())
	if len(spans) != 2 {
		t.Fatalf("recycled trace has %d spans, want 2: %+v", len(spans), spans)
	}
	for _, sd := range spans {
		if len(sd.Attrs) != 0 {
			t.Errorf("recycled span %q carries stale attrs %v", sd.Name, sd.Attrs)
		}
	}
	if spans[0].Name != "req2" || spans[1].Name != "child2" {
		t.Errorf("recycled trace names wrong: %+v", spans)
	}
	tr2.Release()
}

// TestSpanArenaOverflow drives a trace past the fixed arena size: spans
// beyond the block spill to the heap but still join the tree, and
// releasing the trace afterwards is safe.
func TestSpanArenaOverflow(t *testing.T) {
	if compiledOut {
		t.Skip("observability compiled out (noobs)")
	}
	ctx, tr := WithTrace(context.Background(), "wide")
	const n = arenaSpans + 8
	for i := 0; i < n; i++ {
		_, sp := StartSpan(ctx, fmt.Sprintf("c%d", i))
		sp.End()
	}
	tr.End()
	spans := FlattenSpans(tr.Root())
	if len(spans) != n+1 {
		t.Fatalf("overflow trace has %d spans, want %d", len(spans), n+1)
	}
	for i := 0; i < n; i++ {
		if want := fmt.Sprintf("c%d", i); spans[i+1].Name != want {
			t.Fatalf("span %d named %q, want %q", i+1, spans[i+1].Name, want)
		}
	}
	tr.Release()
	if tr.Root() != nil {
		t.Error("overflow trace not released")
	}
}
