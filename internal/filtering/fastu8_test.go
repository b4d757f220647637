package filtering

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/parallel"
	"decamouflage/internal/testutil"
)

// noiseU8Image builds a reproducible random 8-bit image.
func noiseU8Image(rng *rand.Rand, w, h, c int) *imgcore.U8Image {
	u, err := imgcore.NewU8(w, h, c)
	if err != nil {
		panic(err)
	}
	for i := range u.Pix {
		u.Pix[i] = uint8(rng.Intn(256))
	}
	return u
}

// minU8Widened runs MinimumU8Ctx and widens its output through FromU8 so it
// compares against the float64 erosion as a float64 plane.
func minU8Widened(u *imgcore.U8Image, size int) (*imgcore.Image, error) {
	out, err := MinimumU8Ctx(context.Background(), u, size)
	if err != nil {
		return nil, err
	}
	return imgcore.FromU8(out)
}

// TestU8FiltersBitEqualFloat is the central exactness pin of the uint8
// minimum: on 8-bit inputs MinimumU8Ctx must be BIT-IDENTICAL to the float64
// instantiation of the erosion kernel across odd and even windows, both channel counts, and
// non-square geometries.
func TestU8FiltersBitEqualFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	sizes := [][2]int{{2, 3}, {7, 5}, {16, 16}, {31, 29}, {64, 48}, {97, 11}}
	for _, wh := range sizes {
		for _, c := range []int{1, 3} {
			u := noiseU8Image(rng, wh[0], wh[1], c)
			wide, err := imgcore.FromU8(u)
			if err != nil {
				t.Fatal(err)
			}
			for _, window := range []int{2, 3, 4, 5, 7} {
				want, err := erodeFloat(wide, window)
				if err != nil {
					t.Fatalf("float %dx%dx%d w=%d: %v", wh[0], wh[1], c, window, err)
				}
				got, err := minU8Widened(u, window)
				if err != nil {
					t.Fatalf("u8 %dx%dx%d w=%d: %v", wh[0], wh[1], c, window, err)
				}
				if i := testutil.FirstDiff(got.Pix, want.Pix); i != -1 {
					t.Fatalf("%dx%dx%d w=%d: sample %d differs: u8 %v vs float %v",
						wh[0], wh[1], c, window, i, got.Pix[i], want.Pix[i])
				}
			}
		}
	}
}

// TestU8FiltersDegenerateGeometry pins the clamp-border corner cases the
// fuzzer also walks: windows at least as large as the image, single-row
// and single-column images, and even-size anchoring off the clamp border.
func TestU8FiltersDegenerateGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
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
		{6, 6, 1, 6},  // even window == image
		{5, 2, 3, 2},  // minimal even window on a shallow image
		{2, 7, 1, 3},  // odd window wider than the image
	}
	for _, tc := range cases {
		u := noiseU8Image(rng, tc.w, tc.h, tc.c)
		wide, err := imgcore.FromU8(u)
		if err != nil {
			t.Fatal(err)
		}
		want, err := erodeFloat(wide, tc.window)
		if err != nil {
			t.Fatalf("float %dx%dx%d w=%d: %v", tc.w, tc.h, tc.c, tc.window, err)
		}
		got, err := minU8Widened(u, tc.window)
		if err != nil {
			t.Fatalf("u8 %dx%dx%d w=%d: %v", tc.w, tc.h, tc.c, tc.window, err)
		}
		if i := testutil.FirstDiff(got.Pix, want.Pix); i != -1 {
			t.Fatalf("%dx%dx%d w=%d: sample %d differs: u8 %v vs float %v",
				tc.w, tc.h, tc.c, tc.window, i, got.Pix[i], want.Pix[i])
		}
	}
}

// TestU8FiltersSerialParallelEquivalence: band decomposition of the
// fixed-point sweeps must be bit-identical across worker counts.
func TestU8FiltersSerialParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	u := noiseU8Image(rng, 64, 48, 3)
	run := func(window int, po ...parallel.Option) []uint8 {
		t.Helper()
		out, err := minFilterU8(context.Background(), u, window, po...)
		if err != nil {
			t.Fatalf("w=%d: %v", window, err)
		}
		return out.Pix
	}
	for _, window := range []int{2, 5} {
		want := run(window, parallel.Workers(1), parallel.Grain(1))
		for _, workers := range []int{2, 4, 7} {
			got := run(window, parallel.Workers(workers), parallel.Grain(1))
			if !bytes.Equal(got, want) {
				t.Fatalf("w=%d workers=%d: output differs from serial", window, workers)
			}
		}
	}
}

// TestU8FiltersValidation pins the fixed-point entry points' error paths.
func TestU8FiltersValidation(t *testing.T) {
	u := noiseU8Image(rand.New(rand.NewSource(76)), 4, 4, 1)
	for _, size := range []int{0, 1, -3} {
		if _, err := MinimumU8Ctx(context.Background(), u, size); err == nil {
			t.Errorf("MinimumU8Ctx(size=%d) = nil error", size)
		}
	}
	empty := &imgcore.U8Image{}
	if _, err := MinimumU8Ctx(context.Background(), empty, 2); err == nil {
		t.Error("MinimumU8Ctx(empty) = nil error")
	}
}

// TestU8FiltersDoNotMutateInput covers the fixed-point sweeps' aliasing.
func TestU8FiltersDoNotMutateInput(t *testing.T) {
	u := noiseU8Image(rand.New(rand.NewSource(77)), 9, 7, 3)
	snapshot := append([]uint8(nil), u.Pix...)
	if _, err := MinimumU8Ctx(context.Background(), u, 3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(u.Pix, snapshot) {
		t.Fatal("MinimumU8Ctx mutated its input")
	}
}

// benchmarkU8Filter256 runs one fixed-point filter at 256×256×3, window 5,
// single worker — the same shape as the float64 Serial benchmarks so each
// U8/float pair reads off directly in bench output.
func benchmarkU8Filter256(b *testing.B, fn func(*imgcore.U8Image) error) {
	rng := rand.New(rand.NewSource(5))
	u := noiseU8Image(rng, 256, 256, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fn(u); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinFilterU8256 is the uint8 vHGW minimum at window 5; its
// float64 counterpart is BenchmarkMinFilterFloat256.
func BenchmarkMinFilterU8256(b *testing.B) {
	benchmarkU8Filter256(b, func(u *imgcore.U8Image) error {
		_, err := minFilterU8(context.Background(), u, 5, parallel.Workers(1))
		return err
	})
}

// BenchmarkMinFilterFloat256 is the float64 vHGW minimum at window 5 — the
// direct baseline for BenchmarkMinFilterU8256.
func BenchmarkMinFilterFloat256(b *testing.B) {
	benchmarkFilter256(b, func(img *imgcore.Image, size int) (*imgcore.Image, error) {
		return erodeFloat(img, size, parallel.Workers(1))
	}, 5)
}
