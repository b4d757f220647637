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
// sign and leaves scaling to the caller). It recomputes twiddles and chirp
// state on every call; the production entry points use plans instead, and
// this naive path survives as the bit-equality reference the plan tests
// pin against.
func transform(x []complex128, inverse bool) error {
	n := len(x)
	if n == 1 {
		return nil
	}
	if n&(n-1) == 0 {
		radix2(x, inverse)
		return nil
	}
	return bluestein(x, inverse)
}

// radix2 is the iterative in-place Cooley-Tukey FFT for power-of-two sizes.
func radix2(x []complex128, inverse bool) {
	n := len(x)
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
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

// bluestein computes an arbitrary-length DFT via the chirp-z transform,
// expressing it as a convolution evaluated with a power-of-two FFT.
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
	radix2(a, false)
	radix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	radix2(a, true)
	scale := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		x[k] = a[k] * scale * chirp[k]
	}
	return nil
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
