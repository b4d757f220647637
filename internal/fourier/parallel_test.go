package fourier

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"decamouflage/internal/parallel"
)

// randomMatrix fills a W×H complex matrix with reproducible noise.
func randomMatrix(rng *rand.Rand, w, h int) *Matrix {
	m := &Matrix{W: w, H: h, Data: make([]complex128, w*h)}
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}

// TestTransform2DSerialParallelEquivalence is the core determinism
// guarantee of the parallel-for port: the 2-D transform must be
// BIT-IDENTICAL (==, not approximately equal) across worker counts, for
// every size class — powers of two (radix-2), composites and small primes
// (mixed radix), large primes (Bluestein), degenerate single-row/column
// shapes, forward and inverse.
func TestTransform2DSerialParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sizes := [][2]int{
		{1, 1}, {2, 2}, {4, 8}, {16, 16}, {64, 32}, // radix-2 branch
		{3, 5}, {7, 7}, {13, 17}, {31, 37}, {61, 53}, // prime sizes → generic-radix passes
		{127, 131},                              // large primes → Bluestein
		{12, 18}, {24, 36}, {100, 10}, {33, 65}, // even/odd composites
		{128, 1}, {1, 128}, {257, 3}, // degenerate shapes, prime 257
	}
	// Grain(1) maximizes the number of chunks so worker scheduling varies
	// as much as possible; Workers above GOMAXPROCS force real concurrency
	// even on a single-core runner.
	workerCounts := []int{2, 3, 8}
	for _, wh := range sizes {
		for _, inverse := range []bool{false, true} {
			m := randomMatrix(rng, wh[0], wh[1])
			want, err := transform2D(context.Background(), m, inverse, parallel.Workers(1), parallel.Grain(1))
			if err != nil {
				t.Fatalf("%dx%d inverse=%v serial: %v", wh[0], wh[1], inverse, err)
			}
			for _, workers := range workerCounts {
				got, err := transform2D(context.Background(), m, inverse, parallel.Workers(workers), parallel.Grain(1))
				if err != nil {
					t.Fatalf("%dx%d inverse=%v workers=%d: %v", wh[0], wh[1], inverse, workers, err)
				}
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Fatalf("%dx%d inverse=%v workers=%d: element %d differs: %v vs %v",
							wh[0], wh[1], inverse, workers, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// TestFFT2DPublicAPIMatchesPinnedSerial checks that the exported entry
// points (which pick the worker count from GOMAXPROCS) agree bit-for-bit
// with an explicitly serial run — i.e. the default path inherits the
// determinism guarantee.
func TestFFT2DPublicAPIMatchesPinnedSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, wh := range [][2]int{{16, 16}, {17, 19}, {40, 24}} {
		m := randomMatrix(rng, wh[0], wh[1])
		got, err := FFT2D(m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := transform2D(context.Background(), m, false, parallel.Workers(1))
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%dx%d: FFT2D diverges from serial at %d", wh[0], wh[1], i)
			}
		}
		gotInv, err := IFFT2D(got)
		if err != nil {
			t.Fatal(err)
		}
		wantInvRaw, err := transform2D(context.Background(), got, true, parallel.Workers(1))
		if err != nil {
			t.Fatal(err)
		}
		n := complex(float64(m.W*m.H), 0)
		for i := range wantInvRaw.Data {
			if gotInv.Data[i] != wantInvRaw.Data[i]/n {
				t.Fatalf("%dx%d: IFFT2D diverges from serial at %d", wh[0], wh[1], i)
			}
		}
	}
}

// TestFFTMatchesNaiveDFTSizes1To64 cross-checks the FFT against the O(n²)
// reference at EVERY length from 1 to 64 — the dense sweep catches
// mixed-radix regressions (factor order, twiddles, butterflies) that round-trip
// tests structurally cannot, because a consistent forward/inverse bug
// cancels in a round trip.
func TestFFTMatchesNaiveDFTSizes1To64(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for n := 1; n <= 64; n++ {
		x := randomComplex(rng, n)
		got, err := FFT(x)
		if err != nil {
			t.Fatalf("FFT(n=%d): %v", n, err)
		}
		want := naiveDFT(x)
		tol := 1e-9 * float64(n) * float64(n)
		if tol < 1e-9 {
			tol = 1e-9
		}
		for k := range want {
			if !complexClose(got[k], want[k], tol) {
				t.Fatalf("n=%d bin %d: got %v, want %v (|Δ|=%v)",
					n, k, got[k], want[k], got[k]-want[k])
			}
		}
	}
}

func benchmarkFFT2D(b *testing.B, workers int) {
	rng := rand.New(rand.NewSource(3))
	m := randomMatrix(rng, 256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transform2D(context.Background(), m, false, parallel.Workers(workers)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFFT2D256Serial is the single-worker baseline at the paper's
// working resolution.
func BenchmarkFFT2D256Serial(b *testing.B) { benchmarkFFT2D(b, 1) }

// BenchmarkFFT2D256Parallel uses the default worker count (GOMAXPROCS);
// compare against the serial baseline for the parallel speedup.
func BenchmarkFFT2D256Parallel(b *testing.B) { benchmarkFFT2D(b, parallel.DefaultWorkers()) }

// BenchmarkFFT2DBluestein257Parallel exercises the Bluestein branch under
// the parallel row/column sweeps (257 is prime).
func BenchmarkFFT2DBluestein257Parallel(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	m := randomMatrix(rng, 257, 257)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transform2D(context.Background(), m, false); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleFFT2D() {
	m, _ := FromReal([]float64{1, 0, 0, 0}, 2, 2)
	spec, _ := FFT2D(m)
	fmt.Println(spec.At(0, 0))
	// Output: (1+0i)
}
