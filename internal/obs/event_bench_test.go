package obs

import (
	"context"
	"testing"
	"time"
)

// BenchmarkRecordPath measures the flat per-image cost of the full
// recording machinery in isolation: an auto-created trace, a span tree
// the shape of an ensemble detect (root stage, three method spans, three
// pipeline stages each, with the attrs the scorers attach), histogram
// observations per stage, the wide event built from the flattened tree,
// the ring insert, and the span arena's release. The detect-level overhead
// gate (BenchmarkDetectRecorder vs -tags noobs) measures the same work
// diluted by multi-millisecond kernels on a shared runner; this number is
// the stable numerator of that ratio.
func BenchmarkRecordPath(b *testing.B) {
	if compiledOut {
		b.Skip("observability compiled out (noobs)")
	}
	Enable()
	b.Cleanup(Disable)
	rec := NewRecorder(1024)
	h := H("bench.record.seconds")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, tr := WithTrace(context.Background(), "ensemble.detect")
		sctx, st := StartStage(ctx, "ensemble.detect", h)
		for m := 0; m < 3; m++ {
			mctx, ms := StartSpan(sctx, "method")
			for k := 0; k < 3; k++ {
				_, ks := StartStage(mctx, "stage", h)
				ks.End()
			}
			ms.AttrFloat("score", 123.456)
			ms.AttrBool("attack", false)
			ms.End()
		}
		st.End()
		ev := Event{
			Name:    "ensemble.detect",
			TraceID: tr.ID(),
			UnixNs:  tr.Root().start.UnixNano(),
			DurNs:   int64(time.Microsecond),
			Stages:  FlattenSpans(tr.Root()),
		}
		rec.Record(ev)
		tr.End()
		tr.Release()
	}
}
