package fourier

// Reference implementations. Production code runs through plans and the
// real-input spectrum; these naive forms stay here as the references the
// tests pin it against: bit-for-bit for the 1-D transforms and the column
// pass, to a tolerance for the centered spectrum.

import (
	"context"
	"math"
	"math/bits"
	"math/cmplx"

	"decamouflage/internal/parallel"
)

// transform runs an in-place unnormalized DFT (inverse flips the twiddle
// sign and leaves scaling to the caller) through the textbook form of the
// kernel a plan of the same length runs: radix2 for powers of two,
// mixedRadix for lengths bluesteinLength leaves direct, and
// bluesteinOver for the rest. It recomputes every twiddle and chirp on
// each call; the plan tests pin planned output bit for bit against it.
func transform(x []complex128, inverse bool) error {
	n := len(x)
	switch {
	case n == 1:
	case n&(n-1) == 0:
		radix2(x, inverse)
	case bluesteinLength(n) == 0:
		mixedRadix(x, inverse)
	default:
		bluesteinOver(x, inverse, bluesteinLength(n))
	}
	return nil
}

// radix2 is the iterative in-place Cooley-Tukey FFT for power-of-two
// sizes, evaluating each twiddle directly as the plan's tables do.
func radix2(x []complex128, inverse bool) {
	sign := bitReverse(x, inverse)
	n := len(x)
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				w := twiddle(k, size, sign)
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
}

// oldRadix2 is the radix-2 kernel plans ran before their twiddles were
// evaluated directly: each stage's twiddles come from the recurrence
// w *= exp(sign·2πi/size), whose error grows with the stage size. It
// stays frozen as part of the accuracy baseline (oldKernelError and
// bluestein).
func oldRadix2(x []complex128, inverse bool) {
	sign := bitReverse(x, inverse)
	n := len(x)
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		wStep := cmplx.Rect(1, step)
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
}

// bitReverse applies the bit-reversal permutation to a power-of-two x and
// returns the twiddle sign: -1 forward, +1 inverse.
func bitReverse(x []complex128, inverse bool) float64 {
	n := len(x)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	if inverse {
		return 1
	}
	return -1
}

// bluestein is the Bluestein kernel plans ran for every length that is
// not a power of two before the mixed-radix kernel: a chirp-z convolution
// over the next power of two >= 2n-1. No plan runs it now; it stays as
// the accuracy baseline the mixed-radix and new Bluestein kernels must
// not fall below (TestPlannedErrorNoWorseThanOldBluestein).
func bluestein(x []complex128, inverse bool) error {
	n := len(x)
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// chirp[k] = exp(sign * i*pi*k^2/n)
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		// k*k may overflow for very large n; reduce mod 2n first since the
		// chirp phase is periodic with period 2n in k^2.
		kk := (int64(k) * int64(k)) % int64(2*n)
		chirp[k] = cmplx.Rect(1, sign*math.Pi*float64(kk)/float64(n))
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
		b[k] = cmplx.Conj(chirp[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(chirp[k])
	}
	oldRadix2(a, false)
	oldRadix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	oldRadix2(a, true)
	scale := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		x[k] = a[k] * scale * chirp[k]
	}
	return nil
}

// mixedRadix is the recursive decimation-in-time mixed-radix DFT over
// the factors radices(n), outermost first: the reference for the
// Stockham passes of execMixedRadix.
func mixedRadix(x []complex128, inverse bool) {
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	copy(x, dit(x, 1, radices(len(x)), sign))
}

// dit returns the DFT of the samples x[0], x[stride], x[2·stride], ...
// whose count is the product of rs. It splits them by residue modulo
// p = rs[0] into p decimated sub-sequences, transforms each recursively,
// scales sub-transform r at frequency k by the twiddle of r·k (1 at
// k = 0, and skipped there) and combines the p values of each k with a
// p-point DFT.
func dit(x []complex128, stride int, rs []int, sign float64) []complex128 {
	if len(rs) == 0 {
		return []complex128{x[0]}
	}
	p := rs[0]
	subs := make([][]complex128, p)
	for r := range subs {
		subs[r] = dit(x[r*stride:], stride*p, rs[1:], sign)
	}
	m := len(subs[0])
	out := make([]complex128, p*m)
	b := make([]complex128, p)
	for k := 0; k < m; k++ {
		for r := range b {
			b[r] = subs[r][k]
			if r > 0 && k > 0 {
				b[r] *= twiddle(r*k, p*m, sign)
			}
		}
		for u, v := range smallDFT(b, sign) {
			out[k+u*m] = v
		}
	}
	return out
}

// smallDFT is the p-point DFT of b: the closed forms for p = 2, 3, 4 and
// 5, and the direct sum for other primes. The odd sizes pair the inputs
// symmetric about 0, so each output is a real-weighted cosine sum plus
// sign·i times a sine sum.
func smallDFT(b []complex128, sign float64) []complex128 {
	switch len(b) {
	case 2:
		return []complex128{b[0] + b[1], b[0] - b[1]}
	case 3:
		sum, diff := b[1]+b[2], b[1]-b[2]
		c := complex(real(b[0])-0.5*real(sum), imag(b[0])-0.5*imag(sum))
		d := complex(-sign*(sin60*imag(diff)), sign*(sin60*real(diff)))
		return []complex128{b[0] + sum, c + d, c - d}
	case 4:
		even0, even1 := b[0]+b[2], b[0]-b[2]
		odd0, odd1 := b[1]+b[3], b[1]-b[3]
		odd1 = complex(-sign*imag(odd1), sign*real(odd1))
		return []complex128{even0 + odd0, even1 + odd1, even0 - odd0, even1 - odd1}
	case 5:
		s1, d1 := b[1]+b[4], b[1]-b[4]
		s2, d2 := b[2]+b[3], b[2]-b[3]
		c1 := complex(real(b[0])+cos72*real(s1)+cos144*real(s2), imag(b[0])+cos72*imag(s1)+cos144*imag(s2))
		c2 := complex(real(b[0])+cos144*real(s1)+cos72*real(s2), imag(b[0])+cos144*imag(s1)+cos72*imag(s2))
		i1r, i1i := sin72*real(d1)+sin144*real(d2), sin72*imag(d1)+sin144*imag(d2)
		i2r, i2i := sin144*real(d1)-sin72*real(d2), sin144*imag(d1)-sin72*imag(d2)
		e1 := complex(-sign*i1i, sign*i1r)
		e2 := complex(-sign*i2i, sign*i2r)
		return []complex128{b[0] + s1 + s2, c1 + e1, c2 + e2, c2 - e2, c1 - e1}
	}
	// Other odd primes: inputs r and p−r pair up, so outputs u and p−u
	// share the cosine sum of b[r]+b[p−r] and the sine sum of b[r]−b[p−r].
	p := len(b)
	out := make([]complex128, p)
	out[0] = b[0]
	for r := 1; r <= p/2; r++ {
		out[0] += b[r] + b[p-r]
	}
	for u := 1; u <= p/2; u++ {
		cr, ci := real(b[0]), imag(b[0])
		var sr, si float64
		for r := 1; r <= p/2; r++ {
			w := twiddle(r*u%p, p, 1)
			sum, diff := b[r]+b[p-r], b[r]-b[p-r]
			cr += real(w) * real(sum)
			ci += real(w) * imag(sum)
			sr += imag(w) * real(diff)
			si += imag(w) * imag(diff)
		}
		c, e := complex(cr, ci), complex(-sign*si, sign*sr)
		out[u], out[p-u] = c+e, c-e
	}
	return out
}

// bluesteinOver is the chirp-z DFT over convolution length m: the
// reference for execBluestein. x·chirp and the chirp filter are
// transformed forward, their product (the filter spectrum scaled by 1/m)
// is transformed back as conj(FFT(conj(·))), and the result is multiplied
// by the chirp once more.
func bluesteinOver(x []complex128, inverse bool, m int) {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		chirp[k] = cmplx.Rect(1, sign*math.Pi*float64(kk)/float64(n))
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
		b[k] = cmplx.Conj(chirp[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(chirp[k])
	}
	_ = transform(a, false)
	_ = transform(b, false)
	scale := 1 / float64(m)
	for i := range a {
		a[i] = cmplx.Conj(a[i] * complex(real(b[i])*scale, imag(b[i])*scale))
	}
	_ = transform(a, false)
	for k := 0; k < n; k++ {
		x[k] = cmplx.Conj(a[k]) * chirp[k]
	}
}

// transformColumnsReference is the pre-blocking column pass — gather one
// column at a time, transform, scatter — kept as the bit-equality
// reference and benchmark baseline for the blocked transposes.
func transformColumnsReference(ctx context.Context, data []complex128, w, h int, colPlan *Plan, opts ...parallel.Option) error {
	colOpts := append([]parallel.Option{
		parallel.Grain(parallel.GrainForWidth(h, minTransformWork)),
	}, opts...)
	return parallel.For(ctx, w, func(lo, hi int) error {
		cp := colScratch.Get().(*[]complex128)
		defer colScratch.Put(cp)
		col := *cp
		if cap(col) < h {
			col = make([]complex128, h)
			*cp = col
		}
		col = col[:h]
		for x := lo; x < hi; x++ {
			for y := 0; y < h; y++ {
				col[y] = data[y*w+x]
			}
			if err := colPlan.Transform(col); err != nil {
				return err
			}
			for y := 0; y < h; y++ {
				data[y*w+x] = col[y]
			}
		}
		return nil
	}, colOpts...)
}

// Shift applies the fftshift quadrant swap so that the zero-frequency
// component moves to the center of the matrix. It returns a new matrix.
func Shift(m *Matrix) *Matrix {
	out := &Matrix{W: m.W, H: m.H, Data: make([]complex128, len(m.Data))}
	hw, hh := (m.W+1)/2, (m.H+1)/2
	for y := 0; y < m.H; y++ {
		ny := (y + m.H - hh) % m.H
		for x := 0; x < m.W; x++ {
			nx := (x + m.W - hw) % m.W
			out.Data[ny*m.W+nx] = m.Data[y*m.W+x]
		}
	}
	return out
}

// LogMagnitude returns log(1 + |F|) of every element as a real row-major
// slice — the paper's Eq. 4 "logarithmic with a shift" spectrum intensity.
func LogMagnitude(m *Matrix) []float64 {
	out := make([]float64, len(m.Data))
	for i, v := range m.Data {
		out[i] = math.Log1p(cmplx.Abs(v))
	}
	return out
}

// centeredSpectrumComplex is the complex composition of Eq. 4 — FromReal,
// full FFT2D, Shift, LogMagnitude, then normalization by the maximum —
// and the numeric reference for the real-input CenteredSpectrumInto.
func centeredSpectrumComplex(data []float64, w, h int) ([]float64, error) {
	m, err := FromReal(data, w, h)
	if err != nil {
		return nil, err
	}
	spec, err := FFT2D(m)
	if err != nil {
		return nil, err
	}
	logMag := LogMagnitude(Shift(spec))
	var mx float64
	for _, v := range logMag {
		if v > mx {
			mx = v
		}
	}
	if mx > 0 {
		inv := 1 / mx
		for i := range logMag {
			logMag[i] *= inv
		}
	}
	return logMag, nil
}
