package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestStartSpanUntraced(t *testing.T) {
	ctx, sp := StartSpan(context.Background(), "orphan")
	if sp != nil {
		t.Fatal("untraced context should yield a nil span")
	}
	if ctx != context.Background() {
		t.Fatal("untraced StartSpan should return the context unchanged")
	}
	// The nil span must absorb the full API.
	sp.End()
	sp.AttrString("k", "v")
	sp.AttrFloat("f", 1.5)
	sp.AttrInt("i", 2)
	sp.AttrBool("b", true)
	if sp.Duration() != 0 || sp.Name() != "" {
		t.Fatal("nil span should read as zero")
	}
}

func TestTraceTreeAndRender(t *testing.T) {
	if compiledOut {
		t.Skip("observability compiled out (noobs)")
	}
	ctx, tr := WithTrace(context.Background(), "detect")
	cctx, child := StartSpan(ctx, "scaling/MSE")
	child.AttrFloat("score", 123.456)
	child.AttrBool("attack", true)
	_, grand := StartSpan(cctx, "downscale")
	grand.End()
	child.End()
	// A sibling started from the original ctx attaches to the root, not
	// to the closed child.
	_, sib := StartSpan(ctx, "filtering/minmax")
	sib.End()
	tr.End()

	root := tr.Root()
	if root.Name() != "detect" {
		t.Fatalf("root name = %q", root.Name())
	}
	if n := len(root.children); n != 2 {
		t.Fatalf("root children = %d, want 2", n)
	}
	if root.children[0] != child || len(root.children[0].children) != 1 {
		t.Fatal("span tree mis-shaped")
	}

	var sb strings.Builder
	if err := tr.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "detect") {
		t.Fatalf("first line should be the root: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  scaling/MSE") {
		t.Fatalf("child should be indented: %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "    downscale") {
		t.Fatalf("grandchild should be doubly indented: %q", lines[2])
	}
	if !strings.Contains(lines[1], "score=123.456") || !strings.Contains(lines[1], "attack=true") {
		t.Fatalf("attrs missing from render: %q", lines[1])
	}
	if !strings.Contains(lines[1], "+") {
		t.Fatalf("child lines should carry a start offset: %q", lines[1])
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	if compiledOut {
		t.Skip("observability compiled out (noobs)")
	}
	_, tr := WithTrace(context.Background(), "x")
	sp := tr.Root()
	sp.End()
	d1 := sp.Duration()
	time.Sleep(2 * time.Millisecond)
	sp.End()
	if d2 := sp.Duration(); d2 != d1 {
		t.Fatalf("second End changed duration: %v -> %v", d1, d2)
	}
}

func TestNilTrace(t *testing.T) {
	var tr *Trace
	tr.End()
	if tr.Root() != nil {
		t.Fatal("nil trace root should be nil")
	}
	var sb strings.Builder
	if err := tr.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatal("nil trace should render nothing")
	}
}

func TestStageFeedsSpanAndHistogram(t *testing.T) {
	withRecording(t)
	var h Histogram
	ctx, tr := WithTrace(context.Background(), "root")
	_, st := StartStage(ctx, "stage", &h)
	st.Span().AttrInt("n", 1)
	st.End()
	tr.End()
	if got := h.Count(); got != 1 {
		t.Fatalf("stage histogram count = %d, want 1", got)
	}
	if len(tr.Root().children) != 1 || tr.Root().children[0].Name() != "stage" {
		t.Fatal("stage span not attached to trace")
	}
}

func TestStageUntracedStillObserves(t *testing.T) {
	withRecording(t)
	var h Histogram
	_, st := StartStage(context.Background(), "stage", &h)
	if st.Span() != nil {
		t.Fatal("untraced stage should have no span")
	}
	st.End()
	if got := h.Count(); got != 1 {
		t.Fatalf("untraced stage histogram count = %d, want 1", got)
	}
}

func TestStageFullyDisabled(t *testing.T) {
	if compiledOut {
		t.Skip("observability compiled out (noobs)")
	}
	var h Histogram
	_, st := StartStage(context.Background(), "stage", &h)
	st.End()
	if got := h.Count(); got != 0 {
		t.Fatalf("disabled stage recorded %d observations", got)
	}
}

func TestStageNestsUnderStage(t *testing.T) {
	if compiledOut {
		t.Skip("observability compiled out (noobs)")
	}
	ctx, tr := WithTrace(context.Background(), "root")
	sctx, outer := StartStage(ctx, "outer", nil)
	_, inner := StartStage(sctx, "inner", nil)
	inner.End()
	outer.End()
	tr.End()
	root := tr.Root()
	if len(root.children) != 1 {
		t.Fatalf("root children = %d, want 1", len(root.children))
	}
	if kids := root.children[0].children; len(kids) != 1 || kids[0].Name() != "inner" {
		t.Fatal("inner stage should nest under outer stage")
	}
}

// TestRenderStages pins the one span-tree format that Trace.Render and
// obsdump -trace share: the root line has a blank offset column, each
// descendant is indented two spaces per level with its start offset from
// the root, and attributes print sorted by key.
func TestRenderStages(t *testing.T) {
	stages := []StageDur{
		{Name: "ensemble.detect", DurNs: 12_400_000},
		{Name: "scaling/MSE", Depth: 1, OffsetNs: 100_000, DurNs: 8_200_000,
			Attrs: map[string]string{"score": "123.456", "attack": "true"}},
		{Name: "downscale", Depth: 2, OffsetNs: 150_000, DurNs: 5_000_000},
	}
	var sb strings.Builder
	if err := RenderStages(&sb, stages); err != nil {
		t.Fatal(err)
	}
	want := "ensemble.detect                        12.4ms\n" +
		"  scaling/MSE            +100µs         8.2ms attack=true score=123.456\n" +
		"    downscale            +150µs           5ms\n"
	if got := sb.String(); got != want {
		t.Errorf("render =\n%s\nwant\n%s", got, want)
	}
}
