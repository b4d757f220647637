package filtering

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/parallel"
	"decamouflage/internal/testutil"
)

// fastNaivePairs returns the three rank filters in both implementations:
// the fast path under test and the naive reference it must match bit-forbit.
type filterPair struct {
	name  string
	fast  func(*imgcore.Image, int) (*imgcore.Image, error)
	naive func(*imgcore.Image, int) (*imgcore.Image, error)
}

func fastNaivePairs() []filterPair {
	return []filterPair{
		{"min",
			func(img *imgcore.Image, size int) (*imgcore.Image, error) {
				return minMaxFilter(context.Background(), img, size, false)
			},
			func(img *imgcore.Image, size int) (*imgcore.Image, error) {
				return rankFilter(context.Background(), img, size, pickMin)
			}},
		{"max",
			func(img *imgcore.Image, size int) (*imgcore.Image, error) {
				return minMaxFilter(context.Background(), img, size, true)
			},
			func(img *imgcore.Image, size int) (*imgcore.Image, error) {
				return rankFilter(context.Background(), img, size, pickMax)
			}},
		{"median",
			func(img *imgcore.Image, size int) (*imgcore.Image, error) {
				return medianFilter(context.Background(), img, size)
			},
			func(img *imgcore.Image, size int) (*imgcore.Image, error) {
				return rankFilter(context.Background(), img, size, pickMedian)
			}},
	}
}

// TestFastFiltersBitEqualNaive is the core exactness pin of the fast
// kernels: min, max and median must be BIT-IDENTICAL to the naive window
// scan across odd and even windows, both channel counts, and a geometry
// corpus that includes non-square and prime sizes.
func TestFastFiltersBitEqualNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	sizes := [][2]int{{2, 3}, {7, 5}, {16, 16}, {31, 29}, {64, 48}, {97, 11}}
	for _, wh := range sizes {
		for _, c := range []int{1, 3} {
			img := noiseImage(rng, wh[0], wh[1], c)
			for _, window := range []int{2, 3, 4, 5, 7} {
				for _, p := range fastNaivePairs() {
					want, err := p.naive(img, window)
					if err != nil {
						t.Fatalf("%s naive %dx%dx%d w=%d: %v", p.name, wh[0], wh[1], c, window, err)
					}
					got, err := p.fast(img, window)
					if err != nil {
						t.Fatalf("%s fast %dx%dx%d w=%d: %v", p.name, wh[0], wh[1], c, window, err)
					}
					if i := testutil.FirstDiff(got.Pix, want.Pix); i != -1 {
						t.Fatalf("%s %dx%dx%d w=%d: sample %d differs: fast %v vs naive %v",
							p.name, wh[0], wh[1], c, window, i, got.Pix[i], want.Pix[i])
					}
				}
			}
		}
	}
}

// TestFastFiltersDegenerateGeometry pins the clamp-border corner cases for
// both implementations: windows at least as large as the image, single-row
// and single-column images, and even-size anchoring where the whole window
// hangs off the right/bottom clamp border. Satisfying these means the
// padded sweep reproduces AtClamped semantics exactly everywhere.
func TestFastFiltersDegenerateGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	cases := []struct {
		w, h, c, window int
	}{
		{4, 4, 1, 4},  // window == image
		{4, 3, 3, 5},  // window > both dimensions, odd
		{3, 5, 1, 8},  // window much larger, even
		{1, 1, 1, 3},  // single pixel
		{1, 9, 3, 2},  // single column, even window anchors right of it
		{1, 9, 1, 5},  // single column, odd window
		{11, 1, 3, 4}, // single row, even window anchors below it
		{11, 1, 1, 7}, // single row, odd window
		{6, 6, 1, 6},  // even window == image: anchor at (5,5) covers taps 5..10, all clamped
		{5, 2, 3, 2},  // minimal even window on a shallow image
		{2, 7, 1, 3},  // odd window wider than the image
	}
	for _, tc := range cases {
		img := noiseImage(rng, tc.w, tc.h, tc.c)
		for _, p := range fastNaivePairs() {
			want, err := p.naive(img, tc.window)
			if err != nil {
				t.Fatalf("%s naive %dx%dx%d w=%d: %v", p.name, tc.w, tc.h, tc.c, tc.window, err)
			}
			got, err := p.fast(img, tc.window)
			if err != nil {
				t.Fatalf("%s fast %dx%dx%d w=%d: %v", p.name, tc.w, tc.h, tc.c, tc.window, err)
			}
			if i := testutil.FirstDiff(got.Pix, want.Pix); i != -1 {
				t.Fatalf("%s %dx%dx%d w=%d: sample %d differs: fast %v vs naive %v",
					p.name, tc.w, tc.h, tc.c, tc.window, i, got.Pix[i], want.Pix[i])
			}
		}
		// Box is tolerance-tested over the same degenerate corpus.
		want, err := boxNaive(context.Background(), img, tc.window)
		if err != nil {
			t.Fatalf("box naive %dx%dx%d w=%d: %v", tc.w, tc.h, tc.c, tc.window, err)
		}
		got, err := boxFilter(context.Background(), img, tc.window)
		if err != nil {
			t.Fatalf("box fast %dx%dx%d w=%d: %v", tc.w, tc.h, tc.c, tc.window, err)
		}
		for i := range want.Pix {
			if !testutil.ApproxEqual(got.Pix[i], want.Pix[i], 1e-12, 1e-9) {
				t.Fatalf("box %dx%dx%d w=%d: sample %d: fast %v vs naive %v",
					tc.w, tc.h, tc.c, tc.window, i, got.Pix[i], want.Pix[i])
			}
		}
	}
}

// TestBoxFastWithinToleranceOfNaive bounds the running-sum reordering error
// against the per-window reference on regular geometries. The documented
// contract is agreement within 1e-12 relative / 1e-9 absolute for pixel
// data in [0, 255].
func TestBoxFastWithinToleranceOfNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for _, wh := range [][2]int{{5, 3}, {17, 23}, {32, 32}, {41, 19}, {128, 64}} {
		for _, c := range []int{1, 3} {
			img := noiseImage(rng, wh[0], wh[1], c)
			for _, window := range []int{2, 3, 5, 8} {
				want, err := boxNaive(context.Background(), img, window)
				if err != nil {
					t.Fatal(err)
				}
				got, err := boxFilter(context.Background(), img, window)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want.Pix {
					if !testutil.ApproxEqual(got.Pix[i], want.Pix[i], 1e-12, 1e-9) {
						t.Fatalf("box %dx%dx%d w=%d sample %d: fast %v vs naive %v (Δ=%v)",
							wh[0], wh[1], c, window, i, got.Pix[i], want.Pix[i],
							got.Pix[i]-want.Pix[i])
					}
				}
			}
		}
	}
}

// TestFastFiltersSerialParallelEquivalence: the fast kernels' band
// decomposition (rows for the horizontal sweep and the median, columns for
// the vertical sweep) must be bit-identical across worker counts.
func TestFastFiltersSerialParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, wh := range [][2]int{{7, 5}, {31, 29}, {64, 48}} {
		for _, c := range []int{1, 3} {
			img := noiseImage(rng, wh[0], wh[1], c)
			for _, window := range []int{2, 5} {
				type run struct {
					name string
					fn   func(...parallel.Option) (*imgcore.Image, error)
				}
				runs := []run{
					{"min", func(po ...parallel.Option) (*imgcore.Image, error) {
						return minMaxFilter(context.Background(), img, window, false, po...)
					}},
					{"max", func(po ...parallel.Option) (*imgcore.Image, error) {
						return minMaxFilter(context.Background(), img, window, true, po...)
					}},
					{"median", func(po ...parallel.Option) (*imgcore.Image, error) {
						return medianFilter(context.Background(), img, window, po...)
					}},
					{"box", func(po ...parallel.Option) (*imgcore.Image, error) {
						return boxFilter(context.Background(), img, window, po...)
					}},
				}
				for _, r := range runs {
					want, err := r.fn(parallel.Workers(1), parallel.Grain(1))
					if err != nil {
						t.Fatalf("%s serial: %v", r.name, err)
					}
					for _, workers := range []int{2, 4, 7} {
						got, err := r.fn(parallel.Workers(workers), parallel.Grain(1))
						if err != nil {
							t.Fatalf("%s workers=%d: %v", r.name, workers, err)
						}
						if i := testutil.FirstDiff(got.Pix, want.Pix); i != -1 {
							t.Fatalf("%s %dx%dx%d w=%d workers=%d: sample %d differs",
								r.name, wh[0], wh[1], c, window, workers, i)
						}
					}
				}
			}
		}
	}
}

// TestFastFiltersValidation pins the error paths of the fast entry points.
func TestFastFiltersValidation(t *testing.T) {
	img := noiseImage(rand.New(rand.NewSource(65)), 4, 4, 1)
	for _, size := range []int{0, 1, -3} {
		if _, err := Minimum(img, size); err == nil {
			t.Errorf("Minimum(size=%d) = nil error", size)
		}
		if _, err := Maximum(img, size); err == nil {
			t.Errorf("Maximum(size=%d) = nil error", size)
		}
		if _, err := Median(img, size); err == nil {
			t.Errorf("Median(size=%d) = nil error", size)
		}
		if _, err := Box(img, size); err == nil {
			t.Errorf("Box(size=%d) = nil error", size)
		}
	}
	for name, fn := range map[string]func(*imgcore.Image, int) (*imgcore.Image, error){
		"Minimum": Minimum, "Maximum": Maximum, "Median": Median, "Box": Box,
	} {
		if _, err := fn(&imgcore.Image{}, 2); err == nil {
			t.Errorf("%s(empty) = nil error", name)
		}
	}
}

// TestFastFiltersDoNotMutateInput covers the new sweeps' aliasing.
func TestFastFiltersDoNotMutateInput(t *testing.T) {
	img := noiseImage(rand.New(rand.NewSource(66)), 9, 7, 3)
	snapshot := append([]float64(nil), img.Pix...)
	for name, fn := range map[string]func(*imgcore.Image, int) (*imgcore.Image, error){
		"Minimum": Minimum, "Maximum": Maximum, "Median": Median, "Box": Box,
	} {
		if _, err := fn(img, 3); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if i := testutil.FirstDiff(img.Pix, snapshot); i != -1 {
			t.Fatalf("%s mutated its input at sample %d", name, i)
		}
	}
}

// benchmarkFilter256 runs one filter at 256×256×3 with the paper-relevant
// window sizes; window 5 is the headline comparison (the naive path does
// 25 samples per pixel there, the fast paths O(1)).
func benchmarkFilter256(b *testing.B, fn func(*imgcore.Image, int) (*imgcore.Image, error), window int) {
	rng := rand.New(rand.NewSource(5))
	img := noiseImage(rng, 256, 256, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fn(img, window); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRankFilter256Naive is the O(size²)-per-pixel reference sweep
// (window 5 minimum) the fast path's speedup is measured against.
func BenchmarkRankFilter256Naive(b *testing.B) {
	benchmarkFilter256(b, func(img *imgcore.Image, size int) (*imgcore.Image, error) {
		return rankFilter(context.Background(), img, size, pickMin, parallel.Workers(1))
	}, 5)
}

// BenchmarkMedianFilter256Naive is the collect-and-sort median reference at
// window 5.
func BenchmarkMedianFilter256Naive(b *testing.B) {
	benchmarkFilter256(b, func(img *imgcore.Image, size int) (*imgcore.Image, error) {
		return rankFilter(context.Background(), img, size, pickMedian, parallel.Workers(1))
	}, 5)
}

// BenchmarkMedianFilter256Serial is the sliding sorted-window median at
// window 5, single worker.
func BenchmarkMedianFilter256Serial(b *testing.B) {
	benchmarkFilter256(b, func(img *imgcore.Image, size int) (*imgcore.Image, error) {
		return medianFilter(context.Background(), img, size, parallel.Workers(1))
	}, 5)
}

// BenchmarkBoxFilter256Naive is the per-window mean reference at window 5.
func BenchmarkBoxFilter256Naive(b *testing.B) {
	benchmarkFilter256(b, func(img *imgcore.Image, size int) (*imgcore.Image, error) {
		return boxNaive(context.Background(), img, size, parallel.Workers(1))
	}, 5)
}

// BenchmarkBoxFilter256Serial is the separable running-sum box at window 5,
// single worker.
func BenchmarkBoxFilter256Serial(b *testing.B) {
	benchmarkFilter256(b, func(img *imgcore.Image, size int) (*imgcore.Image, error) {
		return boxFilter(context.Background(), img, size, parallel.Workers(1))
	}, 5)
}

// boxNaive is the per-window reference mean filter the fast path is
// tolerance-tested against.
func boxNaive(ctx context.Context, img *imgcore.Image, size int, popts ...parallel.Option) (*imgcore.Image, error) {
	if size < 2 {
		return nil, fmt.Errorf("%w: got %d", ErrBadWindow, size)
	}
	return rankFilter(ctx, img, size, func(buf []float64) float64 {
		var s float64
		for _, v := range buf {
			s += v
		}
		return s / float64(len(buf))
	}, popts...)
}
