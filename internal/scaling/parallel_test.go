package scaling

import (
	"context"
	"math/rand"
	"testing"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/parallel"
	"decamouflage/internal/testutil"
)

func noiseImage(t testing.TB, rng *rand.Rand, w, h, c int) *imgcore.Image {
	t.Helper()
	img, err := imgcore.New(w, h, c)
	if err != nil {
		t.Fatal(err)
	}
	for i := range img.Pix {
		img.Pix[i] = rng.Float64() * 255
	}
	return img
}

// TestResizeSerialParallelEquivalence: the coefficient-matrix application
// must be bit-identical across worker counts for every kernel, both up-
// and downscaling, over odd/even/prime geometries.
func TestResizeSerialParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	algs := []Algorithm{Nearest, Bilinear, Bicubic, Lanczos, Area}
	cases := []struct{ srcW, srcH, dstW, dstH int }{
		{16, 16, 4, 4},
		{31, 29, 7, 11},  // primes both sides
		{13, 64, 64, 13}, // mixed up/down
		{97, 5, 23, 17},
		{8, 8, 32, 32}, // pure upscale
		{1, 7, 3, 2},   // degenerate width
	}
	for _, alg := range algs {
		opts := Options{Algorithm: alg}
		for _, tc := range cases {
			horiz, err := BuildCoeff(tc.srcW, tc.dstW, opts)
			if err != nil {
				t.Fatal(err)
			}
			vert, err := BuildCoeff(tc.srcH, tc.dstH, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []int{1, 3} {
				img := noiseImage(t, rng, tc.srcW, tc.srcH, c)
				want, err := resizeWith(context.Background(), img, horiz, vert, parallel.Workers(1), parallel.Grain(1))
				if err != nil {
					t.Fatalf("%v %+v serial: %v", alg, tc, err)
				}
				for _, workers := range []int{2, 4, 9} {
					got, err := resizeWith(context.Background(), img, horiz, vert, parallel.Workers(workers), parallel.Grain(1))
					if err != nil {
						t.Fatalf("%v %+v workers=%d: %v", alg, tc, workers, err)
					}
					for i := range want.Pix {
						if !testutil.BitEqual(got.Pix[i], want.Pix[i]) {
							t.Fatalf("%v %+v c=%d workers=%d: sample %d differs: %v vs %v",
								alg, tc, c, workers, i, got.Pix[i], want.Pix[i])
						}
					}
				}
			}
		}
	}
}

// TestResizePublicAPIMatchesPinnedSerial ties Resize (default worker
// count) to the explicitly serial path.
func TestResizePublicAPIMatchesPinnedSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	img := noiseImage(t, rng, 53, 47, 3)
	opts := Options{Algorithm: Bicubic}
	got, err := Resize(img, 19, 23, opts)
	if err != nil {
		t.Fatal(err)
	}
	horiz, err := BuildCoeff(img.W, 19, opts)
	if err != nil {
		t.Fatal(err)
	}
	vert, err := BuildCoeff(img.H, 23, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := resizeWith(context.Background(), img, horiz, vert, parallel.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Pix {
		if !testutil.BitEqual(got.Pix[i], want.Pix[i]) {
			t.Fatalf("Resize diverges from serial at sample %d", i)
		}
	}
}

func benchmarkResize(b *testing.B, workers int) {
	rng := rand.New(rand.NewSource(6))
	img := noiseImage(b, rng, 256, 256, 3)
	opts := Options{Algorithm: Bilinear}
	horiz, err := BuildCoeff(256, 64, opts)
	if err != nil {
		b.Fatal(err)
	}
	vert, err := BuildCoeff(256, 64, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := resizeWith(context.Background(), img, horiz, vert, parallel.Workers(workers)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResize256Serial is the single-worker bilinear 256→64 baseline.
func BenchmarkResize256Serial(b *testing.B) { benchmarkResize(b, 1) }

// BenchmarkResize256Parallel is the same resize at the default
// (GOMAXPROCS) worker count.
func BenchmarkResize256Parallel(b *testing.B) { benchmarkResize(b, parallel.DefaultWorkers()) }

// BenchmarkResizeRoundTrip512 is the audit geometry's Method-1 round trip
// at one worker: bilinear 512²×3 down to 128² and back up through
// ResizeInto, with both outputs recycled as the detection pipeline does.
func BenchmarkResizeRoundTrip512(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	img := noiseImage(b, rng, 512, 512, 3)
	opts := Options{Algorithm: Bilinear}
	downS, err := NewScaler(512, 512, 128, 128, opts)
	if err != nil {
		b.Fatal(err)
	}
	upS, err := NewScaler(128, 128, 512, 512, opts)
	if err != nil {
		b.Fatal(err)
	}
	down, up := imgcore.MustNew(128, 128, 3), imgcore.MustNew(512, 512, 3)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := downS.ResizeInto(ctx, img, down, parallel.Workers(1)); err != nil {
			b.Fatal(err)
		}
		if err := upS.ResizeInto(ctx, down, up, parallel.Workers(1)); err != nil {
			b.Fatal(err)
		}
	}
}
