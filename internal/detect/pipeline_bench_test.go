package detect

// BenchmarkEnsembleLegacy / BenchmarkEnsemblePipeline gate the stage-DAG
// pipeline's reason to exist: the fused path must beat the
// kernel-composed per-scorer reference on both time and allocations for
// the full method×metric matrix. cmd/benchguard compares the pair's
// medians in CI.

import (
	"context"
	"testing"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/scaling"
	"decamouflage/internal/steg"
)

const (
	benchSrcW, benchSrcH = 128, 128
	benchDstW, benchDstH = 32, 32
)

// benchEnsemble is the full method×metric matrix over a Lanczos scaler —
// the kernel CNN pre-processing pipelines actually use, and the one whose
// round trip the attack literature targets.
func benchEnsemble(b *testing.B) *Ensemble {
	b.Helper()
	scaler, err := scaling.NewScaler(benchSrcW, benchSrcH, benchDstW, benchDstH,
		scaling.Options{Algorithm: scaling.Lanczos4})
	if err != nil {
		b.Fatal(err)
	}
	var ds []*Detector
	for _, m := range []Metric{MSE, SSIM, PSNR} {
		ss, err := NewScalingScorer(scaler, m)
		if err != nil {
			b.Fatal(err)
		}
		sd, err := NewDetector(ss, matrixThreshold(m))
		if err != nil {
			b.Fatal(err)
		}
		fs, err := NewFilteringScorer(2, m)
		if err != nil {
			b.Fatal(err)
		}
		fd, err := NewDetector(fs, matrixThreshold(m))
		if err != nil {
			b.Fatal(err)
		}
		ds = append(ds, sd, fd)
	}
	gd, err := NewDetector(NewStegScorer(steg.Options{}), DefaultCSPThreshold())
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEnsemble(append(ds, gd)...)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkEnsembleLegacy measures the kernel-composed reference
// (legacyDetect): every scorer recomputes its own substrates (gray plane,
// round trip, min filter, spectrum) from the decoded tensor.
func BenchmarkEnsembleLegacy(b *testing.B) {
	e := benchEnsemble(b)
	img := corpusImage(b, 2026, 0, benchSrcW, benchSrcH)
	ctx := context.Background()
	if _, err := legacyDetect(ctx, e, img); err != nil { // warm coeff/plan caches
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := legacyDetect(ctx, e, img); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnsemblePipeline measures the fused stage-DAG path: shared
// substrates are memoized per image and buffers are pooled.
func BenchmarkEnsemblePipeline(b *testing.B) {
	e := benchEnsemble(b)
	img := corpusImage(b, 2026, 0, benchSrcW, benchSrcH)
	ctx := context.Background()
	if _, err := e.Detect(ctx, img); err != nil { // warm coeff/plan/scaler caches
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Detect(ctx, img); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnsemblePipelineBatch measures the fused DetectBatch over a
// same-geometry batch, where scaler and FFT plan lookups amortise.
func BenchmarkEnsemblePipelineBatch(b *testing.B) {
	const batch = 8
	e := benchEnsemble(b)
	imgs := make([]*imgcore.Image, batch)
	for i := range imgs {
		imgs[i] = corpusImage(b, 2026, i, benchSrcW, benchSrcH)
	}
	ctx := context.Background()
	if _, err := e.DetectBatch(ctx, imgs[:1]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.DetectBatch(ctx, imgs); err != nil {
			b.Fatal(err)
		}
	}
}
