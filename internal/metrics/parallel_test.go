package metrics

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"decamouflage/internal/filtering"
	"decamouflage/internal/imgcore"
	"decamouflage/internal/parallel"
	"decamouflage/internal/testutil"
)

func noisePair(t testing.TB, rng *rand.Rand, w, h, c int) (*imgcore.Image, *imgcore.Image) {
	t.Helper()
	a, err := imgcore.New(w, h, c)
	if err != nil {
		t.Fatal(err)
	}
	b := a.Clone()
	for i := range a.Pix {
		a.Pix[i] = rng.Float64() * 255
		b.Pix[i] = a.Pix[i] + rng.NormFloat64()*8
	}
	return a, b
}

// TestSSIMSerialParallelEquivalence: the production SSIM paths — a shared
// NewSSIMRef → ScoreCtx reference at 1/2/4/8 workers, and the public SSIM
// — must be bit-identical (==, not approximately) to the serial
// ssimWithReference body. Cases cover odd/even/prime geometries, both
// channel counts, images narrower or shorter than the window radius, a
// grayscale reference scored against an RGB comparand (the pipeline's
// shape), and non-default options.
func TestSSIMSerialParallelEquivalence(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(41))
	custom := SSIMOptions{WindowRadius: 3, Sigma: 0.8, K1: 0.02, K2: 0.05, L: 200}
	type ssimCase struct {
		w, h, c int
		opts    SSIMOptions
		grayRef bool // score a's luminance plane against the RGB b
	}
	var cases []ssimCase
	for _, wh := range [][2]int{{12, 12}, {17, 13}, {31, 37}, {64, 24}, {101, 7}, {1, 1}, {3, 17}} {
		for _, c := range []int{1, 3} {
			cases = append(cases, ssimCase{wh[0], wh[1], c, DefaultSSIM(), false})
		}
	}
	cases = append(cases,
		ssimCase{29, 18, 3, DefaultSSIM(), true},
		ssimCase{3, 17, 3, DefaultSSIM(), true},
		ssimCase{23, 31, 1, custom, false},
		ssimCase{23, 31, 3, custom, false},
		ssimCase{40, 9, 3, custom, true},
	)
	for _, tc := range cases {
		name := fmt.Sprintf("%dx%dx%d r=%d grayRef=%v", tc.w, tc.h, tc.c, tc.opts.WindowRadius, tc.grayRef)
		a, b := noisePair(t, rng, tc.w, tc.h, tc.c)
		refImg, refB := a, b
		if tc.grayRef {
			refImg, refB = a.Gray(), b.Gray()
		}
		want, err := ssimWithReference(ctx, refImg, refB, tc.opts, parallel.Workers(1), parallel.Grain(1))
		if err != nil {
			t.Fatalf("%s reference: %v", name, err)
		}
		if !tc.grayRef && tc.opts == DefaultSSIM() {
			got, err := SSIM(a, b)
			if err != nil {
				t.Fatalf("%s SSIM: %v", name, err)
			}
			if !testutil.BitEqual(got, want) {
				t.Fatalf("%s: SSIM %v != reference %v", name, got, want)
			}
		}
		for _, workers := range []int{1, 2, 4, 8} {
			popts := []parallel.Option{parallel.Workers(workers), parallel.Grain(1)}
			ref, err := NewSSIMRef(ctx, refImg, tc.opts, popts...)
			if err != nil {
				t.Fatalf("%s workers=%d: NewSSIMRef: %v", name, workers, err)
			}
			got, err := ref.ScoreCtx(ctx, b, popts...)
			ref.Release()
			if err != nil {
				t.Fatalf("%s workers=%d: ScoreCtx: %v", name, workers, err)
			}
			if !testutil.BitEqual(got, want) {
				t.Fatalf("%s workers=%d: SSIMRef %v != reference %v", name, workers, got, want)
			}
		}
	}
}

// TestBlurSeparableSerialParallelEquivalence pins the Gaussian sweep SSIM
// runs on (filtering.BlurPlane with SSIM's window): every smoothed sample
// bit-identical across worker counts.
func TestBlurSeparableSerialParallelEquivalence(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))
	opts := DefaultSSIM()
	kern := filtering.GaussianKernel(opts.WindowRadius, opts.Sigma)
	for _, wh := range [][2]int{{3, 3}, {16, 9}, {29, 31}, {80, 45}} {
		n := wh[0] * wh[1]
		src := make([]float64, n)
		for i := range src {
			src[i] = rng.Float64() * 255
		}
		want := make([]float64, n)
		if err := filtering.BlurPlane(ctx, want, src, wh[0], wh[1], kern, parallel.Workers(1), parallel.Grain(1)); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 6} {
			got := make([]float64, n)
			if err := filtering.BlurPlane(ctx, got, src, wh[0], wh[1], kern, parallel.Workers(workers), parallel.Grain(1)); err != nil {
				t.Fatal(err)
			}
			if i := testutil.FirstDiff(got, want); i >= 0 {
				t.Fatalf("%dx%d workers=%d: sample %d differs: %v vs %v",
					wh[0], wh[1], workers, i, got[i], want[i])
			}
		}
	}
}

// TestSSIMPublicAPIMatchesPinnedSerial ties SSIM and SSIMWith (default
// worker count, default and custom options) to the serial reference body.
func TestSSIMPublicAPIMatchesPinnedSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a, b := noisePair(t, rng, 48, 56, 3)
	for _, opts := range []SSIMOptions{DefaultSSIM(), {WindowRadius: 2, Sigma: 1.1, K1: 0.01, K2: 0.03, L: 255}} {
		got, err := SSIMWith(a, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ssimWithReference(context.Background(), a, b, opts, parallel.Workers(1))
		if err != nil {
			t.Fatal(err)
		}
		if !testutil.BitEqual(got, want) {
			t.Fatalf("SSIMWith(r=%d) = %v diverges from serial %v", opts.WindowRadius, got, want)
		}
	}
	got, err := SSIM(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ssimWithReference(context.Background(), a, b, DefaultSSIM(), parallel.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.BitEqual(got, want) {
		t.Fatalf("SSIM = %v diverges from serial %v", got, want)
	}
}

func benchmarkSSIM(b *testing.B, size, workers int) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	x, y := noisePair(b, rng, size, size, 1)
	opts := DefaultSSIM()
	popt := parallel.Workers(workers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, err := NewSSIMRef(ctx, x, opts, popt)
		if err != nil {
			b.Fatal(err)
		}
		_, err = ref.ScoreCtx(ctx, y, popt)
		ref.Release()
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSSIM256Serial is the single-worker Gaussian-window SSIM
// baseline at 256×256.
func BenchmarkSSIM256Serial(b *testing.B) { benchmarkSSIM(b, 256, 1) }

// BenchmarkSSIM256Parallel is the same score at the default (GOMAXPROCS)
// worker count.
func BenchmarkSSIM256Parallel(b *testing.B) { benchmarkSSIM(b, 256, parallel.DefaultWorkers()) }

// BenchmarkSSIM512Serial is the single-worker score at the audit
// geometry, 512×512, whose planes no longer fit in L2.
func BenchmarkSSIM512Serial(b *testing.B) { benchmarkSSIM(b, 512, 1) }
