// Transform plans. A Plan precomputes everything about a 1-D DFT of a
// fixed (length, direction) that does not depend on the input, for one of
// three kernels:
//
//   - radix-2 (n a power of two): the bit-reversal permutation and
//     per-stage twiddle tables, each entry evaluated directly as the naive
//     radix2 loop in reference_test.go evaluates it, so planned output is
//     BIT-IDENTICAL to it;
//   - mixed radix (n whose prime factors are small): one Stockham pass
//     per factor, with radix-2/3/4/5 butterflies and a generic small-prime
//     butterfly, pinned bit for bit to the recursive decimation-in-time
//     reference in reference_test.go;
//   - Bluestein (n with a large prime factor): the chirp sequence and the
//     spectrum of the chirp filter over a convolution length the first two
//     kernels run directly, pinned bit for bit to its own reference.
//
// One cost model of n (bluesteinLength) picks the kernel and Bluestein's
// convolution length, so a length always runs the same arithmetic,
// whatever the caller or worker count.
//
// Plans are cached per (length, direction) in a bounded, mutex-guarded LRU
// (planCacheCap entries); the work buffers of the mixed-radix and
// Bluestein kernels and of the 2-D column gather come from sync.Pools.
// Between the two, the steady state of Transform2D/CenteredSpectrum
// performs no per-row allocation.
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
// caller's slice and in pooled scratch. Power-of-two plans reproduce the
// naive radix-2 transform bit for bit; mixed-radix and Bluestein plans
// reproduce their own references in reference_test.go bit for bit.
type Plan struct {
	n       int
	inverse bool

	// Radix-2 state (n a power of two, n >= 2).
	perm   []int          // bit-reversal target for each index
	stages [][]complex128 // twiddle table per butterfly stage, half-size each

	// Mixed-radix state (n with only small prime factors), innermost
	// pass first.
	passes []pass

	// Bluestein state (other lengths).
	chirp []complex128 // exp(sign·iπk²/n), k in [0, n)
	bfft  []complex128 // forward FFT of the chirp filter over sub.n, scaled by 1/sub.n
	sub   *Plan        // forward radix-2 or mixed-radix plan of the convolution length

	// scratch pools the kernel's work buffer: *[]complex128 of length n
	// for mixed radix, of length sub.n (zeroed on return) for Bluestein.
	scratch *sync.Pool
}

// pass is one mixed-radix Stockham pass: it combines radix sub-transforms
// of length l into transforms of length radix·l.
type pass struct {
	radix, l int
	tw       []complex128 // tw[(radix-1)·k + r-1] = twiddle(r·k, radix·l), k in [0, l)
	rot      []complex128 // generic radix only: exp(2πi·j/radix), j in [0, radix)
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
	switch m := bluesteinLength(n); {
	case n == 1:
	case n&(n-1) == 0:
		p.initRadix2()
	case m == 0:
		p.initMixedRadix()
	default:
		if err := p.initBluestein(m); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// sign is the twiddle exponent's sign: -1 forward, +1 inverse.
func (p *Plan) sign() float64 {
	if p.inverse {
		return 1
	}
	return -1
}

// twiddle returns exp(sign·2πi·j/n). The angle takes the correctly
// rounded quotient j/n, so equal fractions give equal bits whatever their
// denominator.
func twiddle(j, n int, sign float64) complex128 {
	return cmplx.Rect(1, sign*2*math.Pi*(float64(j)/float64(n)))
}

// initRadix2 precomputes the bit-reversal permutation and the per-stage
// twiddle tables. Each entry is evaluated directly, not by recurrence, so
// its error does not grow with the stage size.
func (p *Plan) initRadix2() {
	n := p.n
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	p.perm = make([]int, n)
	for i := 0; i < n; i++ {
		p.perm[i] = int(bits.Reverse64(uint64(i)) >> shift)
	}
	sign := p.sign()
	for size := 2; size <= n; size <<= 1 {
		tw := make([]complex128, size>>1)
		for k := range tw {
			tw[k] = twiddle(k, size, sign)
		}
		p.stages = append(p.stages, tw)
	}
}

// initMixedRadix builds one pass per factor of n, innermost first: the
// last of radices(n) combines single samples, the first combines the
// whole transform.
func (p *Plan) initMixedRadix() {
	sign := p.sign()
	rs := radices(p.n)
	l := 1
	for i := len(rs) - 1; i >= 0; i-- {
		r := rs[i]
		ps := pass{radix: r, l: l, tw: make([]complex128, 0, (r-1)*l)}
		for k := 0; k < l; k++ {
			for j := 1; j < r; j++ {
				ps.tw = append(ps.tw, twiddle(j*k, r*l, sign))
			}
		}
		if r > 5 {
			ps.rot = make([]complex128, r)
			for j := range ps.rot {
				ps.rot[j] = twiddle(j, r, 1)
			}
		}
		p.passes = append(p.passes, ps)
		l *= r
	}
	p.scratch = newScratch(p.n)
}

// initBluestein precomputes the chirp sequence and the scaled spectrum of
// the chirp filter over convolution length m. bluesteinLength picks m
// 5-smooth, so its plan runs radix 2 or mixed radix and Bluestein never
// nests. The inverse convolution runs as conj(FFT(conj(·))) through the
// same forward sub-plan, which comes from the shared cache so Bluestein
// lengths with the same m share it.
func (p *Plan) initBluestein(m int) error {
	n := p.n
	sign := p.sign()
	p.chirp = make([]complex128, n)
	for k := 0; k < n; k++ {
		// k*k reduced mod 2n: the chirp phase is periodic with period 2n in
		// k², and the reduction avoids overflow for very large n.
		kk := (int64(k) * int64(k)) % int64(2*n)
		p.chirp[k] = cmplx.Rect(1, sign*math.Pi*float64(kk)/float64(n))
	}
	var err error
	if p.sub, err = PlanFor(m, false); err != nil {
		return err
	}
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		b[k] = cmplx.Conj(p.chirp[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(p.chirp[k])
	}
	if err := p.sub.Transform(b); err != nil {
		return err
	}
	scale := 1 / float64(m)
	for i, v := range b {
		b[i] = complex(real(v)*scale, imag(v)*scale)
	}
	p.bfft = b
	p.scratch = newScratch(m)
	return nil
}

// newScratch returns a pool of zeroed work buffers of length n.
func newScratch(n int) *sync.Pool {
	return &sync.Pool{New: func() any {
		buf := make([]complex128, n)
		return &buf
	}}
}

// Transform runs the planned unnormalized DFT in place on x, which must
// have length N(). The output is bit-identical to the reference of the
// plan's kernel in reference_test.go.
//
//declint:hot
func (p *Plan) Transform(x []complex128) error {
	if len(x) != p.n {
		//declint:ignore hotalloc error path only; the length-mismatch message boxes its ints once per misuse, never per transform
		return fmt.Errorf("fourier: plan length %d, input length %d", p.n, len(x))
	}
	p.exec(x)
	return nil
}

// exec runs the plan's kernel in place on x, of length N(); a length-1
// plan has none.
//
//declint:hot
func (p *Plan) exec(x []complex128) {
	switch {
	case p.perm != nil:
		p.execRadix2(x)
	case p.passes != nil:
		p.execMixedRadix(x)
	case p.chirp != nil:
		p.execBluestein(x)
	}
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

// execMixedRadix runs the Stockham passes, ping-ponging between x and a
// pooled buffer, and copies the result back when it ends in the buffer.
//
//declint:hot
func (p *Plan) execMixedRadix(x []complex128) {
	bp := p.scratch.Get().(*[]complex128)
	src, dst := x, *bp
	for i := range p.passes {
		ps := &p.passes[i]
		s := p.n / (ps.radix * ps.l)
		switch ps.radix {
		case 2:
			pass2(dst, src, ps.tw, s, ps.l)
		case 3:
			pass3(dst, src, ps.tw, s, ps.l, p.sign())
		case 4:
			pass4(dst, src, ps.tw, s, ps.l, p.sign())
		case 5:
			pass5(dst, src, ps.tw, s, ps.l, p.sign())
		default:
			passGeneric(dst, src, ps.tw, ps.rot, s, ps.l, p.sign())
		}
		src, dst = dst, src
	}
	if len(p.passes)%2 == 1 {
		copy(x, src)
	}
	p.scratch.Put(bp)
}

// The pass kernels read sub-transform r of group q at src[q + s·(r +
// radix·k)] and write output u to dst[q + s·(k + l·u)], for q in [0, s)
// and k in [0, l), where s = n/(radix·l) counts the groups. Inputs r >= 1
// at k > 0 are scaled by twiddle(r·k, radix·l) on the way in; at k = 0
// the twiddles are 1 and skipped.

// pass2 is the radix-2 pass.
//
//declint:hot
func pass2(dst, src, tw []complex128, s, l int) {
	sl := s * l
	for q := 0; q < s; q++ {
		dst[q], dst[q+sl] = bfly2(src[q], src[q+s])
		for k := 1; k < l; k++ {
			i, o := q+2*s*k, q+s*k
			dst[o], dst[o+sl] = bfly2(src[i], src[i+s]*tw[k])
		}
	}
}

// pass3 is the radix-3 pass.
//
//declint:hot
func pass3(dst, src, tw []complex128, s, l int, sign float64) {
	sl := s * l
	for q := 0; q < s; q++ {
		dst[q], dst[q+sl], dst[q+2*sl] = bfly3(src[q], src[q+s], src[q+2*s], sign)
		for k := 1; k < l; k++ {
			i, o, w := q+3*s*k, q+s*k, tw[2*k:2*k+2]
			dst[o], dst[o+sl], dst[o+2*sl] = bfly3(src[i], src[i+s]*w[0], src[i+2*s]*w[1], sign)
		}
	}
}

// pass4 is the radix-4 pass.
//
//declint:hot
func pass4(dst, src, tw []complex128, s, l int, sign float64) {
	sl := s * l
	for q := 0; q < s; q++ {
		dst[q], dst[q+sl], dst[q+2*sl], dst[q+3*sl] = bfly4(src[q], src[q+s], src[q+2*s], src[q+3*s], sign)
		for k := 1; k < l; k++ {
			i, o, w := q+4*s*k, q+s*k, tw[3*k:3*k+3]
			dst[o], dst[o+sl], dst[o+2*sl], dst[o+3*sl] = bfly4(src[i], src[i+s]*w[0], src[i+2*s]*w[1], src[i+3*s]*w[2], sign)
		}
	}
}

// pass5 is the radix-5 pass.
//
//declint:hot
func pass5(dst, src, tw []complex128, s, l int, sign float64) {
	sl := s * l
	for q := 0; q < s; q++ {
		dst[q], dst[q+sl], dst[q+2*sl], dst[q+3*sl], dst[q+4*sl] = bfly5(src[q], src[q+s], src[q+2*s], src[q+3*s], src[q+4*s], sign)
		for k := 1; k < l; k++ {
			i, o, w := q+5*s*k, q+s*k, tw[4*k:4*k+4]
			dst[o], dst[o+sl], dst[o+2*sl], dst[o+3*sl], dst[o+4*sl] = bfly5(src[i], src[i+s]*w[0], src[i+2*s]*w[1], src[i+3*s]*w[2], src[i+4*s]*w[3], sign)
		}
	}
}

// passGeneric is the pass for an odd prime radix p above 5 (at most
// maxGenericRadix): a direct p-point DFT per group. It pairs inputs r and
// p−r, so output u and p−u share one cosine sum of b[r]+b[p−r] and one
// sine sum of b[r]−b[p−r], about p²/2 real products per group.
//
//declint:hot
func passGeneric(dst, src, tw, rot []complex128, s, l int, sign float64) {
	p := len(rot)
	h := p / 2
	var sum, dif [maxGenericRadix / 2]complex128
	for q := 0; q < s; q++ {
		for k := 0; k < l; k++ {
			i, o, w := q+p*s*k, q+s*k, tw[(p-1)*k:(p-1)*(k+1)]
			b0 := src[i]
			x0 := b0
			for r := 1; r <= h; r++ {
				a, c := src[i+r*s], src[i+(p-r)*s]
				if k > 0 {
					a, c = a*w[r-1], c*w[p-r-1]
				}
				sum[r-1], dif[r-1] = a+c, a-c
				x0 += sum[r-1]
			}
			dst[o] = x0
			for u := 1; u <= h; u++ {
				c, e := dftPair(b0, sum[:h], dif[:h], rot, u, sign)
				dst[o+s*l*u] = c + e
				dst[o+s*l*(p-u)] = c - e
			}
		}
	}
}

// dftPair returns the cosine part c and the sine part e of outputs u and
// p−u of a p-point DFT, X_u = c + e and X_(p−u) = c − e: c = b0 + Σ
// sum[r−1]·cos(2π·r·u/p) and e = sign·i·Σ dif[r−1]·sin(2π·r·u/p), r from 1
// to p/2, where rot[j] = exp(2πi·j/p).
//
//declint:hot
func dftPair(b0 complex128, sum, dif, rot []complex128, u int, sign float64) (complex128, complex128) {
	p := len(rot)
	cr, ci := real(b0), imag(b0)
	var sr, si float64
	dif = dif[:len(sum)]
	j := 0
	for r, a := range sum {
		j += u
		if j >= p {
			j -= p
		}
		w := rot[j]
		cr += real(w) * real(a)
		ci += real(w) * imag(a)
		sr += imag(w) * real(dif[r])
		si += imag(w) * imag(dif[r])
	}
	return complex(cr, ci), mulI(complex(sr, si), sign)
}

// Butterfly constants: sin(π/3), cos(2π/5), cos(4π/5), sin(2π/5) and
// sin(4π/5).
const (
	sin60  = 0.86602540378443864676372317075293618347140262690519
	cos72  = 0.30901699437494742410229341718281905886015458990288
	cos144 = -0.80901699437494742410229341718281905886015458990288
	sin72  = 0.95105651629515357211643933337938214340569863412575
	sin144 = 0.58778525229247312916870595463907276859765243764315
)

// mulI returns sign·i·z, exactly.
func mulI(z complex128, sign float64) complex128 {
	return complex(-sign*imag(z), sign*real(z))
}

// bfly2 is the 2-point DFT.
func bfly2(b0, b1 complex128) (complex128, complex128) {
	return b0 + b1, b0 - b1
}

// bfly3 is the 3-point DFT with twiddle sign sign.
func bfly3(b0, b1, b2 complex128, sign float64) (complex128, complex128, complex128) {
	t1, t2 := b1+b2, b1-b2
	c := complex(real(b0)-0.5*real(t1), imag(b0)-0.5*imag(t1))
	d := mulI(complex(sin60*real(t2), sin60*imag(t2)), sign)
	return b0 + t1, c + d, c - d
}

// bfly4 is the 4-point DFT with twiddle sign sign.
func bfly4(b0, b1, b2, b3 complex128, sign float64) (complex128, complex128, complex128, complex128) {
	t0, t1 := b0+b2, b0-b2
	t2, t3 := b1+b3, mulI(b1-b3, sign)
	return t0 + t2, t1 + t3, t0 - t2, t1 - t3
}

// bfly5 is the 5-point DFT with twiddle sign sign.
func bfly5(b0, b1, b2, b3, b4 complex128, sign float64) (complex128, complex128, complex128, complex128, complex128) {
	a1, d1 := b1+b4, b1-b4
	a2, d2 := b2+b3, b2-b3
	c1 := complex(real(b0)+cos72*real(a1)+cos144*real(a2), imag(b0)+cos72*imag(a1)+cos144*imag(a2))
	c2 := complex(real(b0)+cos144*real(a1)+cos72*real(a2), imag(b0)+cos144*imag(a1)+cos72*imag(a2))
	e1 := mulI(complex(sin72*real(d1)+sin144*real(d2), sin72*imag(d1)+sin144*imag(d2)), sign)
	e2 := mulI(complex(sin144*real(d1)-sin72*real(d2), sin144*imag(d1)-sin72*imag(d2)), sign)
	return b0 + a1 + a2, c1 + e1, c2 + e2, c2 - e2, c1 - e1
}

// execBluestein evaluates the chirp-z convolution with the precomputed
// filter spectrum and pooled scratch: a = FFT(x·chirp), then the inverse
// convolution as conj(FFT(conj(a·bfft))), whose 1/m is already in bfft.
//
//declint:hot
func (p *Plan) execBluestein(x []complex128) {
	ap := p.scratch.Get().(*[]complex128)
	a := *ap
	chirp := p.chirp[:len(x)]
	for k, v := range x {
		a[k] = v * chirp[k]
	}
	// a[n:] is zero: fresh buffers start zeroed and returned buffers are
	// cleared below.
	p.sub.exec(a)
	bfft := p.bfft[:len(a)]
	for i, v := range a {
		a[i] = cmplx.Conj(v * bfft[i])
	}
	p.sub.exec(a)
	for k := range x {
		x[k] = cmplx.Conj(a[k]) * chirp[k]
	}
	clear(a)
	p.scratch.Put(ap)
}

// maxGenericRadix bounds the prime radix of the generic pass, which keeps
// its pair sums in fixed arrays on the stack; a length with a larger prime
// factor runs Bluestein. Below it the cost model alone decides: for image
// sides up to a few hundred it sends primes above about 100 to Bluestein.
const maxGenericRadix = 127

// radices factors n (n >= 2) into the mixed-radix pass sizes, outermost
// first: 4s, then a 2, then the odd primes ascending.
func radices(n int) []int {
	var rs []int
	for n%4 == 0 {
		rs = append(rs, 4)
		n /= 4
	}
	if n%2 == 0 {
		rs = append(rs, 2)
		n /= 2
	}
	for f := 3; f*f <= n; f += 2 {
		for n%f == 0 {
			rs = append(rs, f)
			n /= f
		}
	}
	if n > 1 {
		rs = append(rs, n)
	}
	return rs
}

// Cost model: nanoseconds per sample of one radix-2 stage of execRadix2,
// of one mixed-radix pass by radix (a generic pass costs
// costGenericBase + costGenericTerm·radix), and of Bluestein's chirp and
// filter products per convolution sample, timed on one core of a 2-vCPU
// x86-64 container at lengths 125 to 4096.
const (
	costRadix2Stage = 2.1
	costPass2       = 3.0
	costPass3       = 3.5
	costPass4       = 3.3
	costPass5       = 5.3
	costGenericBase = 10
	costGenericTerm = 0.6
	costBluestein   = 5
)

// directCost is the modelled time of a length-n transform on the radix-2
// or mixed-radix kernel, +Inf when n has a prime factor above
// maxGenericRadix.
func directCost(n int) float64 {
	if n&(n-1) == 0 {
		return float64(n) * costRadix2Stage * float64(bits.TrailingZeros(uint(n)))
	}
	var c float64
	for _, r := range radices(n) {
		switch r {
		case 2:
			c += costPass2
		case 3:
			c += costPass3
		case 4:
			c += costPass4
		case 5:
			c += costPass5
		default:
			if r > maxGenericRadix {
				return math.Inf(1)
			}
			c += costGenericBase + costGenericTerm*float64(r)
		}
	}
	return float64(n) * c
}

// bluesteinLength reports the convolution length a length-n plan runs
// Bluestein over, or 0 when n transforms directly. It is the one place
// that picks a kernel: n runs Bluestein when that is modelled cheaper than
// the direct kernel, over the cheapest 5-smooth length m >= 2n-1 (the
// next power of two is one of the candidates).
func bluesteinLength(n int) int {
	if n < 2 || n&(n-1) == 0 {
		return 0
	}
	lo := 2*n - 1
	hi := 1 << bits.Len(uint(lo-1))
	best, bestCost := 0, math.Inf(1)
	for p2 := 1; p2 <= hi; p2 *= 2 {
		for p3 := p2; p3 <= hi; p3 *= 3 {
			for m := p3; m <= hi; m *= 5 {
				if m < lo {
					continue
				}
				if c := 2*directCost(m) + costBluestein*float64(m); c < bestCost {
					best, bestCost = m, c
				}
			}
		}
	}
	if directCost(n) <= bestCost {
		return 0
	}
	return best
}

// planCacheCap bounds the global plan cache. Each entry is O(n) complex
// values. A detection service's working set is one forward plan per
// distinct image side, plus one forward plan per distinct Bluestein
// convolution length: the 24 geometries of the mixed-size steganalysis
// benchmark need 32 (TestPlanCacheCoversCSPGeometries). 64 entries cover
// such a set while bounding worst-case memory.
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
