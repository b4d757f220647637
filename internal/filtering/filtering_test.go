package filtering

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"decamouflage/internal/dataset"
	"decamouflage/internal/imgcore"
	"decamouflage/internal/parallel"
	"decamouflage/internal/testutil"
)

func randImage(seed int64, w, h, c int) *imgcore.Image {
	img := imgcore.MustNew(w, h, c)
	rng := rand.New(rand.NewSource(seed))
	for i := range img.Pix {
		img.Pix[i] = rng.Float64() * 255
	}
	return img
}

func TestMinimumKnownValues(t *testing.T) {
	img := imgcore.MustNew(3, 3, 1)
	copy(img.Pix, []float64{
		9, 8, 7,
		6, 5, 4,
		3, 2, 1,
	})
	out, err := Minimum(img, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 2x2 window anchored top-left: out(x,y) = min of (x..x+1, y..y+1).
	want := []float64{
		5, 4, 4,
		2, 1, 1,
		2, 1, 1,
	}
	for i := range want {
		if !testutil.BitEqual(out.Pix[i], want[i]) {
			t.Errorf("min at %d = %v, want %v (got %v)", i, out.Pix[i], want[i], out.Pix)
			break
		}
	}
}

func TestMaximumKnownValues(t *testing.T) {
	img := imgcore.MustNew(3, 3, 1)
	copy(img.Pix, []float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	})
	out, err := Maximum(img, 3)
	if err != nil {
		t.Fatal(err)
	}
	// 3x3 centered window with replicate borders.
	if !testutil.BitEqual(out.At(1, 1, 0), 9) {
		t.Errorf("max center = %v, want 9", out.At(1, 1, 0))
	}
	if !testutil.BitEqual(out.At(0, 0, 0), 5) {
		t.Errorf("max corner = %v, want 5", out.At(0, 0, 0))
	}
}

func TestMedianKnownValues(t *testing.T) {
	img := imgcore.MustNew(3, 1, 1)
	copy(img.Pix, []float64{10, 0, 100})
	out, err := Median(img, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Window at center: {10, 0, 100} -> 10.
	if !testutil.BitEqual(out.At(1, 0, 0), 10) {
		t.Errorf("median = %v, want 10", out.At(1, 0, 0))
	}
}

func TestMedianEvenWindow(t *testing.T) {
	img := imgcore.MustNew(2, 2, 1)
	copy(img.Pix, []float64{1, 2, 3, 4})
	out, err := Median(img, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Top-left window covers all four: median of even count = (2+3)/2.
	if !testutil.BitEqual(out.At(0, 0, 0), 2.5) {
		t.Errorf("even median = %v, want 2.5", out.At(0, 0, 0))
	}
}

// TestRankFilter pins the generic window reduction: selecting the k-th
// smallest sample of the sorted window must reproduce the erosion kernel
// at k = 0 and Maximum at k = size²-1.
func TestRankFilter(t *testing.T) {
	img := imgcore.MustNew(3, 3, 1)
	for i := range img.Pix {
		img.Pix[i] = float64(i)
	}
	kth := func(k int) func([]float64) float64 {
		return func(buf []float64) float64 {
			sort.Float64s(buf)
			return buf[k]
		}
	}
	for _, tc := range []struct {
		k    int
		want func(*imgcore.Image, int) (*imgcore.Image, error)
	}{{0, Minimum}, {8, Maximum}} {
		got, err := rankFilter(context.Background(), img, 3, kth(tc.k))
		if err != nil {
			t.Fatal(err)
		}
		want, err := tc.want(img, 3)
		if err != nil {
			t.Fatal(err)
		}
		if i := testutil.FirstDiff(got.Pix, want.Pix); i != -1 {
			t.Fatalf("rank %d differs at %d: %v vs %v", tc.k, i, got.Pix[i], want.Pix[i])
		}
	}
}

func TestFilterValidation(t *testing.T) {
	img := randImage(1, 4, 4, 1)
	for _, size := range []int{0, 1, -3} {
		if _, err := Minimum(img, size); err == nil {
			t.Errorf("Minimum(size=%d) = nil error", size)
		}
	}
	if _, err := Minimum(&imgcore.Image{}, 2); err == nil {
		t.Error("Minimum(empty) = nil error")
	}
}

// Property: min filter output <= input <= max filter output, everywhere.
func TestMinMaxSandwichProperty(t *testing.T) {
	f := func(seed int64) bool {
		img := randImage(seed, 9, 7, 3)
		lo, err1 := Minimum(img, 2)
		hi, err2 := Maximum(img, 2)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range img.Pix {
			if lo.Pix[i] > img.Pix[i]+1e-12 || hi.Pix[i] < img.Pix[i]-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: erosion is monotone — if a <= b pointwise then min(a) <= min(b).
func TestErosionMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := randImage(seed, 8, 8, 1)
		b := a.Clone()
		rng := rand.New(rand.NewSource(seed + 7))
		for i := range b.Pix {
			b.Pix[i] += rng.Float64() * 50 // b >= a
		}
		ea, err1 := Minimum(a, 3)
		eb, err2 := Minimum(b, 3)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range ea.Pix {
			if ea.Pix[i] > eb.Pix[i]+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: all rank filters preserve constant images exactly.
func TestRankFiltersPreserveConstants(t *testing.T) {
	img := imgcore.MustNew(6, 6, 3)
	img.Fill(77)
	for name, fn := range map[string]func(*imgcore.Image, int) (*imgcore.Image, error){
		"min": Minimum, "max": Maximum, "median": Median,
	} {
		out, err := fn(img, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, v := range out.Pix {
			if math.Abs(v-77) > 1e-9 {
				t.Fatalf("%s sample %d = %v", name, i, v)
			}
		}
	}
}

func TestMinimumRemovesIsolatedBrightPixels(t *testing.T) {
	// The filtering-detection insight: attack perturbations are isolated
	// pixels; a min filter wipes isolated bright spikes entirely.
	img := imgcore.MustNew(8, 8, 1)
	img.Fill(50)
	img.Set(3, 3, 0, 255)
	img.Set(6, 2, 0, 255)
	out, err := Minimum(img, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out.Pix {
		if !testutil.BitEqual(v, 50) {
			t.Fatalf("bright spike survived min filter at %d: %v", i, v)
		}
	}
}

func TestGaussianSmoothing(t *testing.T) {
	img := imgcore.MustNew(9, 9, 1)
	img.Set(4, 4, 0, 255)
	out, err := Gaussian(img, 2, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(4, 4, 0) >= 255 {
		t.Error("gaussian did not spread the impulse")
	}
	if out.At(4, 4, 0) <= out.At(4, 3, 0) {
		t.Error("gaussian peak not at impulse location")
	}
	// Mass approximately preserved away from borders.
	var sum float64
	for _, v := range out.Pix {
		sum += v
	}
	if math.Abs(sum-255) > 1e-6 {
		t.Errorf("gaussian mass = %v, want 255", sum)
	}
}

// gaussianReference is the body Gaussian ran before it moved onto
// BlurPlane: its own window builder, then an AtClamped row pass over every
// channel into a full temporary image and an AtClamped column pass. It is
// the bit-equality reference for Gaussian and BlurPlane.
func gaussianReference(img *imgcore.Image, radius int, sigma float64) *imgcore.Image {
	kern := make([]float64, 2*radius+1)
	var sum float64
	for i := -radius; i <= radius; i++ {
		x := float64(i)
		v := math.Exp(-x * x / (2 * sigma * sigma))
		kern[i+radius] = v
		sum += v
	}
	for i := range kern {
		kern[i] /= sum
	}
	out := img.Clone()
	tmp := img.Clone()
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			for c := 0; c < img.C; c++ {
				var s float64
				for k := -radius; k <= radius; k++ {
					s += kern[k+radius] * img.AtClamped(x+k, y, c)
				}
				tmp.Set(x, y, c, s)
			}
		}
	}
	for y := 0; y < img.H; y++ {
		for x := 0; x < img.W; x++ {
			for c := 0; c < img.C; c++ {
				var s float64
				for k := -radius; k <= radius; k++ {
					s += kern[k+radius] * tmp.AtClamped(x, y+k, c)
				}
				out.Set(x, y, c, s)
			}
		}
	}
	return out
}

// TestGaussianBitEqualReference pins Gaussian bit-equal to the reference
// body over both channel counts, radius 1/2/5, several sigmas and odd
// geometries, including images smaller than the window.
func TestGaussianBitEqualReference(t *testing.T) {
	for i, wh := range [][2]int{{1, 1}, {3, 7}, {9, 4}, {17, 23}, {41, 19}} {
		for _, c := range []int{1, 3} {
			img := randImage(int64(30+i), wh[0], wh[1], c)
			for _, radius := range []int{1, 2, 5} {
				for _, sigma := range []float64{0.6, 1.1, 2.3} {
					got, err := Gaussian(img, radius, sigma)
					if err != nil {
						t.Fatal(err)
					}
					want := gaussianReference(img, radius, sigma)
					if j := testutil.FirstDiff(got.Pix, want.Pix); j >= 0 {
						t.Fatalf("%dx%dx%d r=%d σ=%v: sample %d = %v, reference %v",
							wh[0], wh[1], c, radius, sigma, j, got.Pix[j], want.Pix[j])
					}
				}
			}
		}
	}
}

func TestGaussianValidation(t *testing.T) {
	img := randImage(1, 4, 4, 1)
	if _, err := Gaussian(img, 0, 1); err == nil {
		t.Error("Gaussian(radius=0) = nil error")
	}
	for _, sigma := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Gaussian(img, 2, sigma); err == nil {
			t.Errorf("Gaussian(sigma=%v) = nil error", sigma)
		}
	}
	if _, err := Gaussian(&imgcore.Image{}, 2, 1); err == nil {
		t.Error("Gaussian(empty) = nil error")
	}
}

func TestFiltersDoNotMutateInput(t *testing.T) {
	img := randImage(5, 6, 6, 3)
	snapshot := append([]float64(nil), img.Pix...)
	if _, err := Minimum(img, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := Gaussian(img, 2, 1); err != nil {
		t.Fatal(err)
	}
	for i := range img.Pix {
		if !testutil.BitEqual(img.Pix[i], snapshot[i]) {
			t.Fatal("filter mutated its input")
		}
	}
}

func BenchmarkMinimum2x2_256(b *testing.B) {
	img := randImage(1, 256, 256, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Minimum(img, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinimum2x2_512 is the paper's 2×2 minimum at the audit
// geometry, a 512²×3 natural-statistics 8-bit image, at one worker. The
// u8 sub-benchmark is the lane MinimumInto picks for such an image
// (narrow, erode, widen); float64 erodes the same samples as float64, the
// lane the narrowing has to beat.
func BenchmarkMinimum2x2_512(b *testing.B) {
	g, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.CaltechLike, W: 512, H: 512, C: 3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	img := g.Image(0)
	dst := imgcore.MustNew(512, 512, 3)
	ctx := context.Background()
	b.Run("u8", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := MinimumInto(ctx, img, dst, 2, parallel.Workers(1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("float64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := erode(ctx, dst.Pix, make([]float64, len(img.Pix)), img.Pix, 512, 512, 3, 2, parallel.Workers(1)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkMedian3x3_256(b *testing.B) {
	img := randImage(1, 256, 256, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Median(img, 3); err != nil {
			b.Fatal(err)
		}
	}
}
