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

// erodeFloat runs the float64 instantiation of erode on img whatever its
// samples: the lane MinimumInto takes for inputs without an 8-bit view,
// and the oracle the uint8 lane is pinned against.
func erodeFloat(img *imgcore.Image, size int, popts ...parallel.Option) (*imgcore.Image, error) {
	if err := img.Validate(); err != nil {
		return nil, err
	}
	if err := checkWindow(size); err != nil {
		return nil, err
	}
	out := &imgcore.Image{W: img.W, H: img.H, C: img.C, Pix: make([]float64, len(img.Pix))}
	if err := erode(context.Background(), out.Pix, make([]float64, len(img.Pix)), img.Pix, img.W, img.H, img.C, size, popts...); err != nil {
		return nil, err
	}
	return out, nil
}

// minimumWith is MinimumCtx with parallel options: MinimumInto into a
// fresh output.
func minimumWith(img *imgcore.Image, size int, popts ...parallel.Option) (*imgcore.Image, error) {
	out := &imgcore.Image{W: img.W, H: img.H, C: img.C, Pix: make([]float64, len(img.Pix))}
	if err := MinimumInto(context.Background(), img, out, size, popts...); err != nil {
		return nil, err
	}
	return out, nil
}

// checkMinAgainstNaive fails t unless the float64 erosion kernel and the
// naive window scan agree bit for bit on img at the given window.
func checkMinAgainstNaive(t *testing.T, img *imgcore.Image, window int) {
	t.Helper()
	want, err := rankFilter(context.Background(), img, window, pickMin)
	if err != nil {
		t.Fatalf("naive %dx%dx%d w=%d: %v", img.W, img.H, img.C, window, err)
	}
	got, err := erodeFloat(img, window)
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
// decomposition (bands of rows for both passes) must be bit-identical
// across worker counts.
func TestFastFiltersSerialParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, wh := range [][2]int{{7, 5}, {31, 29}, {64, 48}} {
		for _, c := range []int{1, 3} {
			img := noiseImage(rng, wh[0], wh[1], c)
			for _, window := range []int{2, 5} {
				want, err := erodeFloat(img, window, parallel.Workers(1), parallel.Grain(1))
				if err != nil {
					t.Fatalf("serial: %v", err)
				}
				for _, workers := range []int{2, 4, 7} {
					got, err := erodeFloat(img, window, parallel.Workers(workers), parallel.Grain(1))
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

// TestMinimumIntoBitEqualNaive pins the one minimum-filter entry point on
// both of its lanes: integral 0–255 inputs (the uint8 erosion) and
// fractional or out-of-range inputs (the float64 erosion) must match the
// naive window scan bit for bit, at one worker and at several.
func TestMinimumIntoBitEqualNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	integral := func(w, h, c int) *imgcore.Image {
		img, err := imgcore.FromU8(noiseU8Image(rng, w, h, c))
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	outOfRange := func(w, h, c int) *imgcore.Image {
		img := integral(w, h, c)
		img.Pix[len(img.Pix)/2] = 256
		return img
	}
	cases := []struct {
		name string
		make func(w, h, c int) *imgcore.Image
		u8   bool
	}{
		{"integral", integral, true},
		{"fractional", func(w, h, c int) *imgcore.Image { return noiseImage(rng, w, h, c) }, false},
		{"out-of-range", outOfRange, false},
	}
	for _, tc := range cases {
		for _, wh := range [][2]int{{1, 9}, {7, 5}, {31, 29}, {64, 48}} {
			for _, c := range []int{1, 3} {
				img := tc.make(wh[0], wh[1], c)
				if _, ok := img.ToU8(); ok != tc.u8 {
					t.Fatalf("%s: ToU8 ok = %v, want %v", tc.name, ok, tc.u8)
				}
				for _, window := range []int{2, 3, 4, 5} {
					want, err := rankFilter(context.Background(), img, window, pickMin)
					if err != nil {
						t.Fatal(err)
					}
					for _, workers := range []int{1, 4} {
						got, err := minimumWith(img, window, parallel.Workers(workers), parallel.Grain(1))
						if err != nil {
							t.Fatalf("%s %dx%dx%d w=%d workers=%d: %v", tc.name, wh[0], wh[1], c, window, workers, err)
						}
						if i := testutil.FirstDiff(got.Pix, want.Pix); i != -1 {
							t.Fatalf("%s %dx%dx%d w=%d workers=%d: sample %d: %v vs naive %v",
								tc.name, wh[0], wh[1], c, window, workers, i, got.Pix[i], want.Pix[i])
						}
					}
				}
			}
		}
	}
}

// TestMinimumIntoRejectsBadDst pins the shape check: a dst that does not
// have src's geometry, or is not a valid image, is an error.
func TestMinimumIntoRejectsBadDst(t *testing.T) {
	src := noiseImage(rand.New(rand.NewSource(68)), 6, 4, 3)
	for name, dst := range map[string]*imgcore.Image{
		"width":    imgcore.MustNew(5, 4, 3),
		"height":   imgcore.MustNew(6, 5, 3),
		"channels": imgcore.MustNew(6, 4, 1),
		"empty":    {},
		"nil":      nil,
	} {
		if err := MinimumInto(context.Background(), src, dst, 2); err == nil {
			t.Errorf("%s: MinimumInto = nil error", name)
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
