package filtering

import (
	"context"
	"math/rand"
	"testing"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/parallel"
	"decamouflage/internal/testutil"
)

// pickMin is the window reduction of the naive minimum, the reference the
// erosion kernel must match bit for bit.
func pickMin(buf []float64) float64 {
	m := buf[0]
	for _, v := range buf[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// checkMinAgainstNaive fails t unless the erosion kernel and the naive
// window scan agree bit for bit on img at the given window.
func checkMinAgainstNaive(t *testing.T, img *imgcore.Image, window int) {
	t.Helper()
	want, err := rankFilter(context.Background(), img, window, pickMin)
	if err != nil {
		t.Fatalf("naive %dx%dx%d w=%d: %v", img.W, img.H, img.C, window, err)
	}
	got, err := minFilter(context.Background(), img, window)
	if err != nil {
		t.Fatalf("fast %dx%dx%d w=%d: %v", img.W, img.H, img.C, window, err)
	}
	if i := testutil.FirstDiff(got.Pix, want.Pix); i != -1 {
		t.Fatalf("%dx%dx%d w=%d: sample %d differs: fast %v vs naive %v",
			img.W, img.H, img.C, window, i, got.Pix[i], want.Pix[i])
	}
}

// TestFastFiltersBitEqualNaive is the core exactness pin of the erosion
// kernel: the minimum must be BIT-IDENTICAL to the naive window scan across
// odd and even windows, both channel counts, and a geometry corpus that
// includes non-square and prime sizes.
func TestFastFiltersBitEqualNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	sizes := [][2]int{{2, 3}, {7, 5}, {16, 16}, {31, 29}, {64, 48}, {97, 11}}
	for _, wh := range sizes {
		for _, c := range []int{1, 3} {
			img := noiseImage(rng, wh[0], wh[1], c)
			for _, window := range []int{2, 3, 4, 5, 7} {
				checkMinAgainstNaive(t, img, window)
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
		checkMinAgainstNaive(t, noiseImage(rng, tc.w, tc.h, tc.c), tc.window)
	}
}

// TestFastFiltersSerialParallelEquivalence: the erosion kernel's band
// decomposition (rows for the horizontal sweep, columns for the vertical
// sweep) must be bit-identical across worker counts.
func TestFastFiltersSerialParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, wh := range [][2]int{{7, 5}, {31, 29}, {64, 48}} {
		for _, c := range []int{1, 3} {
			img := noiseImage(rng, wh[0], wh[1], c)
			for _, window := range []int{2, 5} {
				want, err := minFilter(context.Background(), img, window, parallel.Workers(1), parallel.Grain(1))
				if err != nil {
					t.Fatalf("serial: %v", err)
				}
				for _, workers := range []int{2, 4, 7} {
					got, err := minFilter(context.Background(), img, window, parallel.Workers(workers), parallel.Grain(1))
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					if i := testutil.FirstDiff(got.Pix, want.Pix); i != -1 {
						t.Fatalf("%dx%dx%d w=%d workers=%d: sample %d differs",
							wh[0], wh[1], c, window, workers, i)
					}
				}
			}
		}
	}
}

// TestFastFiltersValidation pins the error paths of the filter entry points.
func TestFastFiltersValidation(t *testing.T) {
	img := noiseImage(rand.New(rand.NewSource(65)), 4, 4, 1)
	filters := map[string]func(*imgcore.Image, int) (*imgcore.Image, error){
		"Minimum": Minimum, "Maximum": Maximum, "Median": Median,
	}
	for name, fn := range filters {
		for _, size := range []int{0, 1, -3} {
			if _, err := fn(img, size); err == nil {
				t.Errorf("%s(size=%d) = nil error", name, size)
			}
		}
		if _, err := fn(&imgcore.Image{}, 2); err == nil {
			t.Errorf("%s(empty) = nil error", name)
		}
	}
}

// TestFastFiltersDoNotMutateInput covers the sweeps' aliasing.
func TestFastFiltersDoNotMutateInput(t *testing.T) {
	img := noiseImage(rand.New(rand.NewSource(66)), 9, 7, 3)
	snapshot := append([]float64(nil), img.Pix...)
	for name, fn := range map[string]func(*imgcore.Image, int) (*imgcore.Image, error){
		"Minimum": Minimum, "Maximum": Maximum, "Median": Median,
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
// 25 samples per pixel there, the erosion kernel O(1)).
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

// BenchmarkMedianFilter256Naive is the collect-and-sort median behind
// Median at window 5.
func BenchmarkMedianFilter256Naive(b *testing.B) {
	benchmarkFilter256(b, func(img *imgcore.Image, size int) (*imgcore.Image, error) {
		return rankFilter(context.Background(), img, size, pickMedian, parallel.Workers(1))
	}, 5)
}
