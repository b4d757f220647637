// Transform plans. A Plan precomputes everything about a 1-D DFT of a
// fixed (length, direction) that does not depend on the input: the
// bit-reversal permutation and per-stage twiddle tables for radix-2
// lengths, plus the chirp sequence and the precomputed FFT of the chirp
// filter for Bluestein lengths. Executing a plan performs the exact same
// arithmetic as the naive transform in reference_test.go — the twiddle
// tables are built by the same repeated-multiplication recurrence the
// naive loop uses — so planned output is BIT-IDENTICAL to unplanned output
// (pinned by TestPlannedMatchesNaive*).
//
// Plans are cached per (length, direction) in a bounded, mutex-guarded LRU
// (planCacheCap entries); scratch buffers for Bluestein's convolution and
// the 2-D column gather come from sync.Pools. Between the two, the steady
// state of Transform2D/CenteredSpectrum performs no per-row allocation at
// all for radix-2 sizes and only pool churn for Bluestein sizes.
package fourier

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"

	"decamouflage/internal/cache"
	"decamouflage/internal/obs"
)

// Plan is an immutable, reusable 1-D DFT descriptor for one (length,
// direction). It is safe for concurrent use: execution state lives on the
// caller's slice and in pooled scratch.
type Plan struct {
	n       int
	inverse bool

	// Radix-2 state (n a power of two, n >= 2).
	perm   []int          // bit-reversal target for each index
	stages [][]complex128 // twiddle table per butterfly stage, half-size each

	// Bluestein state (other lengths).
	m       int          // power-of-two convolution length >= 2n-1
	chirp   []complex128 // exp(sign·iπk²/n), k in [0, n)
	bfft    []complex128 // forward FFT of the chirp filter, length m
	sub     *Plan        // radix-2 plan of length m, forward
	subInv  *Plan        // radix-2 plan of length m, inverse
	scratch *sync.Pool   // *[]complex128 of length m, zeroed on return
}

// N returns the transform length the plan was built for.
func (p *Plan) N() int { return p.n }

// Inverse reports the transform direction.
func (p *Plan) Inverse() bool { return p.inverse }

// NewPlan builds a plan for an unnormalized DFT of length n in the given
// direction (inverse plans flip the twiddle sign and, like the naive
// transform, leave 1/n scaling to the caller).
func NewPlan(n int, inverse bool) (*Plan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fourier: invalid plan length %d", n)
	}
	p := &Plan{n: n, inverse: inverse}
	if n == 1 {
		return p, nil
	}
	if n&(n-1) == 0 {
		p.initRadix2()
		return p, nil
	}
	if err := p.initBluestein(); err != nil {
		return nil, err
	}
	return p, nil
}

// initRadix2 precomputes the bit-reversal permutation and the per-stage
// twiddle tables, using the SAME repeated-multiplication recurrence as the
// naive radix2 loop so the table entries are bit-identical to the values
// that loop would compute.
func (p *Plan) initRadix2() {
	n := p.n
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	p.perm = make([]int, n)
	for i := 0; i < n; i++ {
		p.perm[i] = int(bits.Reverse64(uint64(i)) >> shift)
	}
	sign := -1.0
	if p.inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		wStep := cmplx.Rect(1, step)
		tw := make([]complex128, half)
		w := complex(1, 0)
		for k := 0; k < half; k++ {
			tw[k] = w
			w *= wStep
		}
		p.stages = append(p.stages, tw)
	}
}

// initBluestein precomputes the chirp sequence and the forward FFT of the
// chirp filter, plus the two radix-2 sub-plans for the convolution length.
// Sub-plans come from the shared cache so different Bluestein lengths with
// the same padded size share tables.
func (p *Plan) initBluestein() error {
	n := p.n
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	p.m = m
	sign := -1.0
	if p.inverse {
		sign = 1.0
	}
	p.chirp = make([]complex128, n)
	for k := 0; k < n; k++ {
		// k*k reduced mod 2n: the chirp phase is periodic with period 2n in
		// k², and the reduction avoids overflow for very large n. Matches
		// the naive bluestein exactly.
		kk := (int64(k) * int64(k)) % int64(2*n)
		p.chirp[k] = cmplx.Rect(1, sign*math.Pi*float64(kk)/float64(n))
	}
	var err error
	p.sub, err = PlanFor(m, false)
	if err != nil {
		return err
	}
	p.subInv, err = PlanFor(m, true)
	if err != nil {
		return err
	}
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		b[k] = cmplx.Conj(p.chirp[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(p.chirp[k])
	}
	p.sub.execRadix2(b)
	p.bfft = b
	p.scratch = &sync.Pool{New: func() any { return &[]complex128{} }}
	return nil
}

// Transform runs the planned unnormalized DFT in place on x, which must
// have length N(). The arithmetic — and therefore the output, bit for bit
// — is identical to the naive transform in reference_test.go.
//
//declint:hot
func (p *Plan) Transform(x []complex128) error {
	if len(x) != p.n {
		//declint:ignore hotalloc error path only; the length-mismatch message boxes its ints once per misuse, never per transform
		return fmt.Errorf("fourier: plan length %d, input length %d", p.n, len(x))
	}
	if p.n == 1 {
		return nil
	}
	if p.perm != nil {
		p.execRadix2(x)
		return nil
	}
	p.execBluestein(x)
	return nil
}

// execRadix2 is the iterative Cooley-Tukey butterfly with precomputed
// permutation and twiddles. Early stages (half < radix2Strided) hold the
// twiddle fixed and stride through every block, so a tiny block is never
// re-sliced; later stages walk each block's lo/hi halves with the bounds
// checks hoisted. Either walk applies to every element the multiply, add
// and subtract of the naive radix2 loop, so the output is bit-identical to
// it.
//
//declint:hot
func (p *Plan) execRadix2(x []complex128) {
	n := p.n
	for i, j := range p.perm {
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	size := 2
	for _, tw := range p.stages {
		half := size >> 1
		if half < radix2Strided {
			for k, w := range tw {
				for i := k; i < n; i += size {
					a := x[i]
					b := x[i+half] * w
					x[i] = a + b
					x[i+half] = a - b
				}
			}
		} else {
			for start := 0; start < n; start += size {
				lo := x[start : start+half]
				hi := x[start+half : start+size]
				hi = hi[:len(lo)]
				tw := tw[:len(lo)]
				for k, a := range lo {
					b := hi[k] * tw[k]
					lo[k] = a + b
					hi[k] = a - b
				}
			}
		}
		size <<= 1
	}
}

// radix2Strided is the butterfly half-size below which execRadix2 loops
// twiddle-outermost across blocks instead of block by block.
const radix2Strided = 8

// execBluestein evaluates the chirp-z convolution with the precomputed
// filter spectrum and pooled scratch.
//
//declint:hot
func (p *Plan) execBluestein(x []complex128) {
	n, m := p.n, p.m
	ap := p.scratch.Get().(*[]complex128)
	a := *ap
	if cap(a) < m {
		//declint:ignore hotalloc pool-miss cold path; steady state reuses the pooled buffer
		a = make([]complex128, m)
	}
	a = a[:m]
	for k := 0; k < n; k++ {
		a[k] = x[k] * p.chirp[k]
	}
	// a[n:] is zero: fresh buffers start zeroed and returned buffers are
	// cleared below.
	p.sub.execRadix2(a)
	for i := range a {
		a[i] *= p.bfft[i]
	}
	p.subInv.execRadix2(a)
	scale := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		x[k] = a[k] * scale * p.chirp[k]
	}
	clear(a)
	*ap = a
	p.scratch.Put(ap)
}

// planCacheCap bounds the global plan cache. Each entry is O(n) complex
// values; 64 entries comfortably cover a detection service's working set
// (a handful of image geometries × two directions, plus Bluestein
// sub-plans) while bounding worst-case memory.
const planCacheCap = 64

type planKey struct {
	n       int
	inverse bool
}

// planCache memoizes plans per (length, direction), reporting hit/miss/
// eviction counts as the "fourier.plan" cache metrics.
var planCache = cache.NewLRU[planKey, *Plan](planCacheCap, obs.NewCacheStats("fourier.plan"))

// PlanFor returns the cached plan for (n, direction), building and caching
// it on first use. The cache holds at most planCacheCap entries and evicts
// the least recently used; eviction only drops the cache's reference, so
// plans already held by callers (or embedded as Bluestein sub-plans)
// remain valid. Concurrent callers may briefly build the same plan twice
// (the build runs outside the cache lock, which also lets Bluestein
// construction recursively call PlanFor for its convolution length); both
// copies compute identical tables, so whichever lands in the cache is
// indistinguishable.
func PlanFor(n int, inverse bool) (*Plan, error) {
	return planCache.GetOrBuild(planKey{n: n, inverse: inverse}, func() (*Plan, error) {
		return NewPlan(n, inverse)
	})
}

// planCacheLen reports the current cache population (for tests).
func planCacheLen() int { return planCache.Len() }

// resetPlanCache empties the cache (for tests).
func resetPlanCache() { planCache.Reset() }
