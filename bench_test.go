package decamouflage_test

// The benchmark harness: one benchmark per paper table and figure, each
// driving the same experiment runner as cmd/experiments at a reduced corpus
// size (N=16; pass -ldflags or edit benchN for larger sweeps). Corpus
// construction is excluded from the timed region by warming the runner's
// caches, so each op measures the experiment pipeline itself: scoring,
// calibration and evaluation. Micro-benchmarks for the substrates (FFT,
// resize, SSIM, min-filter, CSP, attack crafting, POCS) live in their
// packages.

import (
	"context"
	"io"
	"testing"

	"decamouflage/internal/experiments"
)

const benchN = 16

func newBenchRunner(b *testing.B) *experiments.Runner {
	b.Helper()
	r := experiments.NewRunner(experiments.Config{
		N:    benchN,
		SrcW: 64, SrcH: 64, DstW: 16, DstH: 16,
		Seed: 7,
		Out:  io.Discard,
	})
	// Warm the corpora so the timed loop measures the experiment itself.
	ctx := context.Background()
	if _, err := r.Train(ctx); err != nil {
		b.Fatal(err)
	}
	if _, err := r.Eval(ctx); err != nil {
		b.Fatal(err)
	}
	return r
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	r := newBenchRunner(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Run(ctx, id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1ModelSizes regenerates paper Table 1.
func BenchmarkTable1ModelSizes(b *testing.B) { benchExperiment(b, "T1") }

// BenchmarkTable2ScalingWhiteBox regenerates paper Table 2.
func BenchmarkTable2ScalingWhiteBox(b *testing.B) { benchExperiment(b, "T2") }

// BenchmarkTable3ScalingBlackBox regenerates paper Table 3.
func BenchmarkTable3ScalingBlackBox(b *testing.B) { benchExperiment(b, "T3") }

// BenchmarkTable4FilteringWhiteBox regenerates paper Table 4.
func BenchmarkTable4FilteringWhiteBox(b *testing.B) { benchExperiment(b, "T4") }

// BenchmarkTable5FilteringBlackBox regenerates paper Table 5.
func BenchmarkTable5FilteringBlackBox(b *testing.B) { benchExperiment(b, "T5") }

// BenchmarkTable6Steganalysis regenerates paper Table 6.
func BenchmarkTable6Steganalysis(b *testing.B) { benchExperiment(b, "T6") }

// BenchmarkTable7Runtime regenerates paper Table 7 (the per-method
// run-time overhead measurement itself).
func BenchmarkTable7Runtime(b *testing.B) { benchExperiment(b, "T7") }

// BenchmarkTable8Ensemble regenerates paper Table 8.
func BenchmarkTable8Ensemble(b *testing.B) { benchExperiment(b, "T8") }

// BenchmarkTable9EscapedAttacks regenerates the paper's Table 9 oracle.
func BenchmarkTable9EscapedAttacks(b *testing.B) { benchExperiment(b, "T9") }

// BenchmarkFigure1AttackExample regenerates paper Figures 1/2.
func BenchmarkFigure1AttackExample(b *testing.B) { benchExperiment(b, "F1") }

// BenchmarkFigure3ScalingIntuition regenerates paper Figure 3.
func BenchmarkFigure3ScalingIntuition(b *testing.B) { benchExperiment(b, "F3") }

// BenchmarkFigure4Filters regenerates paper Figures 4/5.
func BenchmarkFigure4Filters(b *testing.B) { benchExperiment(b, "F4") }

// BenchmarkFigure6Spectrum regenerates paper Figures 6/7.
func BenchmarkFigure6Spectrum(b *testing.B) { benchExperiment(b, "F6") }

// BenchmarkFigure8ThresholdCurve regenerates paper Figure 8.
func BenchmarkFigure8ThresholdCurve(b *testing.B) { benchExperiment(b, "F8") }

// BenchmarkFigure9ScalingDistributions regenerates paper Figure 9.
func BenchmarkFigure9ScalingDistributions(b *testing.B) { benchExperiment(b, "F9") }

// BenchmarkFigure10ScalingPercentiles regenerates paper Figure 10.
func BenchmarkFigure10ScalingPercentiles(b *testing.B) { benchExperiment(b, "F10") }

// BenchmarkFigure11FilteringDistributions regenerates paper Figure 11.
func BenchmarkFigure11FilteringDistributions(b *testing.B) { benchExperiment(b, "F11") }

// BenchmarkFigure12FilteringPercentiles regenerates paper Figure 12.
func BenchmarkFigure12FilteringPercentiles(b *testing.B) { benchExperiment(b, "F12") }

// BenchmarkFigure13CSPDistributions regenerates paper Figure 13.
func BenchmarkFigure13CSPDistributions(b *testing.B) { benchExperiment(b, "F13") }

// BenchmarkFigure14PSNRScaling regenerates paper Figure 14 (Appendix A).
func BenchmarkFigure14PSNRScaling(b *testing.B) { benchExperiment(b, "F14") }

// BenchmarkFigure15PSNRFiltering regenerates paper Figure 15 (Appendix A).
func BenchmarkFigure15PSNRFiltering(b *testing.B) { benchExperiment(b, "F15") }

// BenchmarkX2EpsSweep runs the ε-sweep ablation (X2).
func BenchmarkX2EpsSweep(b *testing.B) { benchExperiment(b, "X2") }

// BenchmarkX3CSPSensitivity runs the CSP parameter ablation (X3).
func BenchmarkX3CSPSensitivity(b *testing.B) { benchExperiment(b, "X3") }

// BenchmarkX4PreventionBaselines runs the detection-vs-prevention
// comparison (X4).
func BenchmarkX4PreventionBaselines(b *testing.B) { benchExperiment(b, "X4") }

// BenchmarkX6HistogramDebunk runs the color-histogram baseline (X6).
func BenchmarkX6HistogramDebunk(b *testing.B) { benchExperiment(b, "X6") }

// BenchmarkX7ROCAUC runs the per-metric ROC analysis (X7).
func BenchmarkX7ROCAUC(b *testing.B) { benchExperiment(b, "X7") }

// BenchmarkX8JPEGRobustness runs the JPEG recompression study (X8).
func BenchmarkX8JPEGRobustness(b *testing.B) { benchExperiment(b, "X8") }

// BenchmarkX9RatioSweep runs the scale-ratio sweep with target-size
// forensics (X9).
func BenchmarkX9RatioSweep(b *testing.B) { benchExperiment(b, "X9") }

// BenchmarkX10ThresholdStability runs the cross-seed threshold-stability
// study (X10).
func BenchmarkX10ThresholdStability(b *testing.B) { benchExperiment(b, "X10") }
