package detect

import (
	"context"
	"testing"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/obs"
)

// benchDetect measures one full three-method ensemble detection. The
// Disabled/Instrumented pair is the observability overhead gate: CI runs
// BenchmarkDetectDisabled against a -tags noobs baseline (instrumentation
// compiled out) via cmd/benchguard and fails the build when the
// disabled-path cost exceeds 2%.
func benchDetect(b *testing.B) {
	e := obsTestEnsemble(b)
	img := obsTestImage(b, 32, 32)
	benchDetectWith(b, e, img)
}

func benchDetectWith(b *testing.B, e *Ensemble, img *imgcore.Image) {
	ctx := context.Background()
	// Warm the coefficient and plan caches so the loop measures the
	// steady-state hot path, not one-time setup.
	if _, err := e.Detect(ctx, img); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Detect(ctx, img); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetectDisabled(b *testing.B) {
	obs.Disable()
	benchDetect(b)
}

func BenchmarkDetectInstrumented(b *testing.B) {
	obs.Enable()
	b.Cleanup(obs.Disable)
	benchDetect(b)
}

// BenchmarkDetectRecorder measures the fully loaded observability stack:
// metrics on, a trace per image, and the flight recorder writing a wide
// event per image before the trace's span arena is released. CI runs it against the same benchmark compiled with -tags
// noobs (where every obs call is a no-op, so the benchmark degenerates
// to the bare pipeline) via cmd/benchguard and fails the build when the
// full-stack cost exceeds 2%.
//
// Unlike the Disabled/Instrumented pair, this benchmark runs at the
// system's default deployment geometry (128x128 inputs scaled to 32x32,
// the cmd defaults and the paper's setup). Recording is a flat per-image
// cost — materializing the span tree and denormalizing it into one event
// is ~8us regardless of pixel count (obs.BenchmarkRecordPath pins it in
// isolation) — so the meaningful question is what that costs against a
// real detection, not against the 32x32 microbenchmark the
// nanosecond-tight disabled-path gate uses, where the whole detection
// itself is only ~200us.
func BenchmarkDetectRecorder(b *testing.B) {
	obs.Enable()
	b.Cleanup(obs.Disable)
	rec := obs.NewRecorder(1024)
	obs.SetRecorder(rec)
	b.Cleanup(func() { obs.SetRecorder(nil) })
	e, err := BuildSystem(&SystemConfig{
		DstW: 32, DstH: 32, Algorithm: "bilinear",
		Thresholds: map[string]Threshold{
			"scaling/MSE":    {Value: 100, Direction: Above},
			"filtering/SSIM": {Value: 0.5, Direction: Below},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	benchDetectWith(b, e, obsTestImage(b, 128, 128))
}
