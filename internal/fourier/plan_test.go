package fourier

import (
	"context"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"decamouflage/internal/obs"
	"decamouflage/internal/parallel"
	"decamouflage/internal/testutil"
)

// planLengths covers every kernel: radix-2 powers of two (including the
// trivial 1 and 2); mixed-radix lengths with radix-2/3/4/5 passes (6, 12,
// 15, 100, 288, 300), generic passes (7, 31, 97, 129 = 3·43, 304 = 16·19,
// 316 = 4·79); and Bluestein lengths over a power of two (127) and over a
// 5-smooth length (131 over 288, 257 over 576).
var planLengths = []int{1, 2, 4, 8, 16, 64, 256, 3, 5, 6, 7, 12, 15, 31, 97, 100, 129, 288, 300, 304, 316, 127, 131, 257}

// TestPlannedMatchesNaiveBitExact: the planned transform must reproduce
// the per-call transform BIT-FOR-BIT in both directions for every length
// class: the naive radix-2 loop for powers of two, and the textbook
// mixed-radix and Bluestein references for the other lengths. This is the
// contract that lets FFT/IFFT/transform2D run plans without perturbing
// any downstream detection score.
func TestPlannedMatchesNaiveBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range planLengths {
		for _, inverse := range []bool{false, true} {
			x := randomComplex(rng, n)
			want := append([]complex128(nil), x...)
			if err := transform(want, inverse); err != nil {
				t.Fatalf("n=%d inverse=%v naive: %v", n, inverse, err)
			}
			p, err := PlanFor(n, inverse)
			if err != nil {
				t.Fatalf("n=%d inverse=%v PlanFor: %v", n, inverse, err)
			}
			got := append([]complex128(nil), x...)
			if err := p.Transform(got); err != nil {
				t.Fatalf("n=%d inverse=%v planned: %v", n, inverse, err)
			}
			if i := testutil.FirstDiffComplex(got, want); i >= 0 {
				t.Fatalf("n=%d inverse=%v: planned diverges from naive at sample %d: %v vs %v",
					n, inverse, i, got[i], want[i])
			}
		}
	}
}

// TestPlanReuseIsDeterministic: executing the same plan repeatedly (which
// exercises the pooled mixed-radix scratch and the pooled Bluestein
// scratch reuse and its zeroing) must keep producing bit-identical output.
func TestPlanReuseIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, n := range []int{16, 100, 97, 127} {
		p, err := PlanFor(n, false)
		if err != nil {
			t.Fatal(err)
		}
		x := randomComplex(rng, n)
		first := append([]complex128(nil), x...)
		if err := p.Transform(first); err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 5; rep++ {
			again := append([]complex128(nil), x...)
			if err := p.Transform(again); err != nil {
				t.Fatal(err)
			}
			if i := testutil.FirstDiffComplex(again, first); i >= 0 {
				t.Fatalf("n=%d rep=%d: reuse diverges at sample %d", n, rep, i)
			}
		}
	}
}

// TestPlanValidation pins the error surface: bad lengths at construction,
// mismatched input length at execution.
func TestPlanValidation(t *testing.T) {
	for _, n := range []int{0, -1, -8} {
		if _, err := NewPlan(n, false); err == nil {
			t.Fatalf("NewPlan(%d) accepted invalid length", n)
		}
		if _, err := PlanFor(n, false); err == nil {
			t.Fatalf("PlanFor(%d) accepted invalid length", n)
		}
	}
	p, err := NewPlan(8, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Transform(make([]complex128, 7)); err == nil {
		t.Fatal("Transform accepted mismatched input length")
	}
	if p.N() != 8 || p.Inverse() {
		t.Fatalf("accessors: N=%d Inverse=%v", p.N(), p.Inverse())
	}
}

// TestPlanCacheBoundsAndHits: the cache must return the identical instance
// on a repeat request, and never exceed planCacheCap even when flooded
// with distinct lengths.
func TestPlanCacheBoundsAndHits(t *testing.T) {
	resetPlanCache()
	defer resetPlanCache()

	a, err := PlanFor(64, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlanFor(64, false)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("repeat PlanFor returned a distinct instance (cache miss)")
	}
	inv, err := PlanFor(64, true)
	if err != nil {
		t.Fatal(err)
	}
	if inv == a {
		t.Fatal("direction must be part of the cache key")
	}

	// Flood with far more distinct (length, direction) keys than the cap —
	// Bluestein lengths also pull their sub-plans through the cache.
	for n := 1; n <= 100; n++ {
		if _, err := PlanFor(n, false); err != nil {
			t.Fatal(err)
		}
		if _, err := PlanFor(n, true); err != nil {
			t.Fatal(err)
		}
	}
	if got := planCacheLen(); got > planCacheCap {
		t.Fatalf("cache grew to %d entries, cap is %d", got, planCacheCap)
	}

	// An evicted-then-refetched plan must still produce correct output.
	rng := rand.New(rand.NewSource(33))
	x := randomComplex(rng, 64)
	want := append([]complex128(nil), x...)
	if err := transform(want, false); err != nil {
		t.Fatal(err)
	}
	p, err := PlanFor(64, false)
	if err != nil {
		t.Fatal(err)
	}
	got := append([]complex128(nil), x...)
	if err := p.Transform(got); err != nil {
		t.Fatal(err)
	}
	if i := testutil.FirstDiffComplex(got, want); i >= 0 {
		t.Fatalf("refetched plan diverges at sample %d", i)
	}
}

// TestPlanForConcurrent: concurrent PlanFor callers (through the
// repository's parallel substrate) must all land on working plans and
// agree with the naive reference; run under -race this also exercises the
// build-outside-lock path for data races.
func TestPlanForConcurrent(t *testing.T) {
	resetPlanCache()
	defer resetPlanCache()
	rng := rand.New(rand.NewSource(34))
	lengths := []int{8, 100, 97, 64, 12, 256, 127}
	inputs := make([][]complex128, len(lengths))
	wants := make([][]complex128, len(lengths))
	for i, n := range lengths {
		inputs[i] = randomComplex(rng, n)
		wants[i] = append([]complex128(nil), inputs[i]...)
		if err := transform(wants[i], false); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 8
	err := parallel.For(context.Background(), rounds*len(lengths), func(lo, hi int) error {
		for job := lo; job < hi; job++ {
			i := job % len(lengths)
			p, err := PlanFor(lengths[i], false)
			if err != nil {
				return err
			}
			got := append([]complex128(nil), inputs[i]...)
			if err := p.Transform(got); err != nil {
				return err
			}
			if d := testutil.FirstDiffComplex(got, wants[i]); d >= 0 {
				t.Errorf("n=%d: concurrent planned transform diverges at %d", lengths[i], d)
			}
		}
		return nil
	}, parallel.Workers(8), parallel.Grain(1))
	if err != nil {
		t.Fatal(err)
	}
}

// TestBluesteinLengthRunsDirectly pins the kernel choice: lengths whose
// prime factors are at most 5 transform directly, a hostile prime side
// runs Bluestein, and every Bluestein convolution length is 5-smooth and
// at least 2n−1, so it transforms directly and Bluestein never nests.
func TestBluesteinLengthRunsDirectly(t *testing.T) {
	smooth := func(m int) bool {
		for _, f := range []int{2, 3, 5} {
			for m%f == 0 {
				m /= f
			}
		}
		return m == 1
	}
	for n := 1; n <= 4096; n++ {
		m := bluesteinLength(n)
		if smooth(n) && m != 0 {
			t.Fatalf("5-smooth n=%d runs Bluestein over %d", n, m)
		}
		if m == 0 {
			continue
		}
		if m < 2*n-1 || !smooth(m) || bluesteinLength(m) != 0 {
			t.Fatalf("n=%d: Bluestein over m=%d, want a directly transformed 5-smooth m >= %d", n, m, 2*n-1)
		}
	}
	for _, n := range []int{4093, 2 * 4093, 4 * 1021} {
		if bluesteinLength(n) == 0 {
			t.Errorf("n=%d (prime factor %d) runs the generic pass", n, radices(n)[len(radices(n))-1])
		}
	}
}

// maxAbsDiff returns the largest |a[i] − b[i]|.
func maxAbsDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		m = math.Max(m, cmplx.Abs(a[i]-b[i]))
	}
	return m
}

// naiveDFTDir is naiveDFT in either direction: the inverse is
// conj(DFT(conj(x))).
func naiveDFTDir(x []complex128, inverse bool) []complex128 {
	if !inverse {
		return naiveDFT(x)
	}
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = cmplx.Conj(v)
	}
	out := naiveDFT(c)
	for i, v := range out {
		out[i] = cmplx.Conj(v)
	}
	return out
}

// oldKernelError is the error against naiveDFT of the kernels plans ran
// before the mixed-radix kernel — oldRadix2 for powers of two, the
// power-of-two Bluestein otherwise — floored at 16·ε·√n, the rounding
// level of the naive sum itself for unit-variance input.
func oldKernelError(x, want []complex128, inverse bool) float64 {
	old := append([]complex128(nil), x...)
	if n := len(x); n > 1 && n&(n-1) == 0 {
		oldRadix2(old, inverse)
	} else if n > 1 {
		_ = bluestein(old, inverse)
	}
	floor := 16 * 0x1p-52 * math.Sqrt(float64(len(x)))
	return math.Max(maxAbsDiff(old, want), floor)
}

// TestPlannedErrorNoWorseThanOldBluestein sweeps every length 1..400 in
// both directions: the planned transform's error against naiveDFT must
// not exceed that of the kernel the length ran before mixed radix.
func TestPlannedErrorNoWorseThanOldBluestein(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for n := 1; n <= 400; n++ {
		for _, inverse := range []bool{false, true} {
			x := randomComplex(rng, n)
			want := naiveDFTDir(x, inverse)
			p, err := PlanFor(n, inverse)
			if err != nil {
				t.Fatal(err)
			}
			got := append([]complex128(nil), x...)
			if err := p.Transform(got); err != nil {
				t.Fatal(err)
			}
			if e, old := maxAbsDiff(got, want), oldKernelError(x, want, inverse); e > old {
				t.Errorf("n=%d inverse=%v: planned error %.3g, old kernel %.3g", n, inverse, e, old)
			}
		}
	}
}

// TestPowerOfTwoErrorWithinLogBound pins the radix-2 kernel's accuracy:
// at every power of two up to 1024, in both directions, the planned
// transform's error against naiveDFT stays within 4·ε·log₂n·‖x‖₂, the
// textbook growth of a Cooley-Tukey FFT with exact twiddles. Twiddles
// built by the recurrence w *= exp(2πi/size) (oldRadix2) exceed it from
// n = 256 on, by 6.6× to 16× the ε·log₂n·‖x‖₂ unit.
func TestPowerOfTwoErrorWithinLogBound(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for n := 2; n <= 1024; n <<= 1 {
		for _, inverse := range []bool{false, true} {
			x := randomComplex(rng, n)
			var norm2 float64
			for _, v := range x {
				norm2 += real(v)*real(v) + imag(v)*imag(v)
			}
			bound := 4 * 0x1p-52 * math.Log2(float64(n)) * math.Sqrt(norm2)
			p, err := PlanFor(n, inverse)
			if err != nil {
				t.Fatal(err)
			}
			got := append([]complex128(nil), x...)
			if err := p.Transform(got); err != nil {
				t.Fatal(err)
			}
			if e := maxAbsDiff(got, naiveDFTDir(x, inverse)); e > bound {
				t.Errorf("n=%d inverse=%v: error %.3g > %.3g", n, inverse, e, bound)
			}
		}
	}
}

// FuzzPlanTransform: for a length in 1..1024 and a random input, the
// planned transform must match naiveDFT within the old kernel's error at
// that length, and the forward/inverse round trip must return the input.
func FuzzPlanTransform(f *testing.F) {
	for _, n := range []uint16{0, 255, 299, 315, 1008, 1023} {
		f.Add(n, int64(n))
	}
	f.Fuzz(func(t *testing.T, n16 uint16, seed int64) {
		n := int(n16)%1024 + 1
		x := randomComplex(rand.New(rand.NewSource(seed)), n)
		fwd, err := FFT(x)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveDFT(x)
		if e, old := maxAbsDiff(fwd, want), oldKernelError(x, want, false); e > old {
			t.Fatalf("n=%d: planned error %.3g, old kernel %.3g", n, e, old)
		}
		back, err := IFFT(fwd)
		if err != nil {
			t.Fatal(err)
		}
		if e := maxAbsDiff(back, x); e > 1e-12*float64(n) {
			t.Fatalf("n=%d: round trip error %.3g", n, e)
		}
	})
}

// cspSides lists the image sides of the 24 geometries of the mixed-size
// steganalysis benchmark workload (perfbench's cspGeoms).
var cspSides = [][2]int{
	{260, 304}, {228, 316}, {244, 288}, {252, 308}, {240, 320}, {236, 300},
	{244, 316}, {216, 264}, {248, 292}, {232, 280}, {220, 276}, {208, 312},
	{256, 320}, {200, 296}, {236, 272}, {228, 260}, {204, 268}, {212, 284},
	{192, 300}, {212, 248}, {200, 244}, {192, 256}, {224, 256}, {196, 232},
}

// TestPlanCacheCoversCSPGeometries: planning every side of the workload's
// geometries, with their Bluestein convolution lengths, fits the plan
// cache with no eviction.
func TestPlanCacheCoversCSPGeometries(t *testing.T) {
	resetPlanCache()
	defer resetPlanCache()
	evictions := obs.C("fourier.plan.evictions")
	e0 := evictions.Value()
	keys := map[int]bool{}
	for _, g := range cspSides {
		for _, n := range g {
			if _, err := Plan2DFor(g[0], g[1]); err != nil {
				t.Fatal(err)
			}
			keys[n] = true
			if m := bluesteinLength(n); m != 0 {
				keys[m] = true
			}
		}
	}
	if got := planCacheLen(); got != len(keys) || got > planCacheCap {
		t.Fatalf("cache holds %d plans for %d distinct lengths, cap %d", got, len(keys), planCacheCap)
	}
	if got := evictions.Value() - e0; got != 0 {
		t.Fatalf("planning the workload's sides evicted %d plans", got)
	}
}

// benchmarkPlanned1D times the steady-state planned path against
// benchmarkNaive1D for one length.
func benchmarkPlanned1D(b *testing.B, n int, inverse bool) {
	rng := rand.New(rand.NewSource(35))
	x := randomComplex(rng, n)
	buf := make([]complex128, n)
	p, err := PlanFor(n, inverse)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		if err := p.Transform(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkNaive1D(b *testing.B, n int, inverse bool) {
	rng := rand.New(rand.NewSource(35))
	x := randomComplex(rng, n)
	buf := make([]complex128, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		if err := transform(buf, inverse); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFFT1D256Planned(b *testing.B)  { benchmarkPlanned1D(b, 256, false) }
func BenchmarkFFT1D256Naive(b *testing.B)    { benchmarkNaive1D(b, 256, false) }
func BenchmarkFFT1D1000Planned(b *testing.B) { benchmarkPlanned1D(b, 1000, false) }
func BenchmarkFFT1D1000Naive(b *testing.B)   { benchmarkNaive1D(b, 1000, false) }

// BenchmarkFFT1D300Planned times a 5-smooth side (4·3·5·5) and
// BenchmarkFFT1D316Planned one with a large prime factor (4·79), both
// among the image sides of the mixed-size steganalysis workload.
func BenchmarkFFT1D300Planned(b *testing.B) { benchmarkPlanned1D(b, 300, false) }
func BenchmarkFFT1D316Planned(b *testing.B) { benchmarkPlanned1D(b, 316, false) }

// BenchmarkFFT2D256Unplanned reproduces the pre-plan transform2D (naive
// per-call transform, per-chunk column allocation) as the baseline for
// BenchmarkFFT2D256Serial in parallel_test.go.
func BenchmarkFFT2D256Unplanned(b *testing.B) {
	rng := rand.New(rand.NewSource(36))
	m, err := NewMatrix(256, 256)
	if err != nil {
		b.Fatal(err)
	}
	for i := range m.Data {
		m.Data[i] = complex(rng.Float64(), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := &Matrix{W: m.W, H: m.H, Data: append([]complex128(nil), m.Data...)}
		for y := 0; y < m.H; y++ {
			if err := transform(out.Data[y*m.W:(y+1)*m.W], false); err != nil {
				b.Fatal(err)
			}
		}
		col := make([]complex128, m.H)
		for x := 0; x < m.W; x++ {
			for y := 0; y < m.H; y++ {
				col[y] = out.Data[y*m.W+x]
			}
			if err := transform(col, false); err != nil {
				b.Fatal(err)
			}
			for y := 0; y < m.H; y++ {
				out.Data[y*m.W+x] = col[y]
			}
		}
	}
}
