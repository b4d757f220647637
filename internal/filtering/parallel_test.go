package filtering

import (
	"context"
	"math/rand"
	"testing"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/parallel"
	"decamouflage/internal/testutil"
)

// noiseImage builds a reproducible random image.
func noiseImage(rng *rand.Rand, w, h, c int) *imgcore.Image {
	img := imgcore.MustNew(w, h, c)
	for i := range img.Pix {
		img.Pix[i] = rng.Float64() * 255
	}
	return img
}

// TestRankFilterSerialParallelEquivalence: every rank-filter output must be
// bit-identical across worker counts, over odd/even/prime geometries, both
// channel counts, and even/odd windows (which anchor differently).
func TestRankFilterSerialParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sizes := [][2]int{{1, 1}, {2, 3}, {7, 5}, {16, 16}, {31, 29}, {64, 48}, {97, 11}}
	picks := map[string]func([]float64) float64{
		"min":    pickMin,
		"max":    pickMax,
		"median": pickMedian,
	}
	for _, wh := range sizes {
		for _, c := range []int{1, 3} {
			img := noiseImage(rng, wh[0], wh[1], c)
			for _, window := range []int{2, 3} {
				for name, pick := range picks {
					want, err := rankFilter(context.Background(), img, window, pick, parallel.Workers(1), parallel.Grain(1))
					if err != nil {
						t.Fatalf("%s %dx%dx%d w=%d serial: %v", name, wh[0], wh[1], c, window, err)
					}
					for _, workers := range []int{2, 4, 7} {
						got, err := rankFilter(context.Background(), img, window, pick, parallel.Workers(workers), parallel.Grain(1))
						if err != nil {
							t.Fatalf("%s workers=%d: %v", name, workers, err)
						}
						for i := range want.Pix {
							if !testutil.BitEqual(got.Pix[i], want.Pix[i]) {
								t.Fatalf("%s %dx%dx%d w=%d workers=%d: sample %d differs: %v vs %v",
									name, wh[0], wh[1], c, window, workers, i, got.Pix[i], want.Pix[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestGaussianSerialParallelEquivalence covers the Gaussian blur's
// parallel bands: every channel plane of the shared blur (BlurPlane) is
// bit-equal to the serial reference body at every worker count.
func TestGaussianSerialParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, wh := range [][2]int{{5, 3}, {17, 23}, {32, 32}, {41, 19}} {
		for _, c := range []int{1, 3} {
			img := noiseImage(rng, wh[0], wh[1], c)
			wantGauss := gaussianReference(img, 2, 1.1)
			kern := GaussianKernel(2, 1.1)
			for _, workers := range []int{1, 2, 5} {
				for ch := 0; ch < c; ch++ {
					src, err := img.Channel(ch)
					if err != nil {
						t.Fatal(err)
					}
					want, err := wantGauss.Channel(ch)
					if err != nil {
						t.Fatal(err)
					}
					got := make([]float64, len(src.Pix))
					if err := BlurPlane(context.Background(), got, src.Pix, wh[0], wh[1], kern, parallel.Workers(workers), parallel.Grain(1)); err != nil {
						t.Fatal(err)
					}
					if i := testutil.FirstDiff(got, want.Pix); i >= 0 {
						t.Fatalf("gaussian %dx%dx%d channel %d workers=%d: sample %d differs", wh[0], wh[1], c, ch, workers, i)
					}
				}
			}
		}
	}
}

// TestExportedFiltersMatchPinnedSerial ties the public entry points (which
// take their worker count from GOMAXPROCS) to the serial reference.
func TestExportedFiltersMatchPinnedSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	img := noiseImage(rng, 37, 26, 3)
	got, err := Minimum(img, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rankFilter(context.Background(), img, 2, pickMin, parallel.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Pix {
		if !testutil.BitEqual(got.Pix[i], want.Pix[i]) {
			t.Fatalf("Minimum diverges from serial at sample %d", i)
		}
	}
}

func benchmarkMinimum(b *testing.B, workers int) {
	rng := rand.New(rand.NewSource(5))
	img := noiseImage(rng, 256, 256, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := minimumWith(img, 5, parallel.Workers(workers)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRankFilter256Serial is the single-worker 5×5 minimum filter at
// 256×256×3 on the van Herk–Gil–Werman erosion kernel; compare against
// BenchmarkRankFilter256Naive (fast_test.go) for the algorithmic speedup
// and BenchmarkRankFilter256Parallel for the multi-core one.
func BenchmarkRankFilter256Serial(b *testing.B) { benchmarkMinimum(b, 1) }

// BenchmarkRankFilter256Parallel is the same sweep at the default
// (GOMAXPROCS) worker count.
func BenchmarkRankFilter256Parallel(b *testing.B) { benchmarkMinimum(b, parallel.DefaultWorkers()) }
