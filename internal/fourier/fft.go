// Package fourier implements the discrete Fourier transforms Decamouflage's
// steganalysis method is built on: an iterative radix-2 FFT, a mixed-radix
// FFT for lengths with small prime factors, Bluestein's algorithm for the
// other lengths, 2-D transforms and the centered
// log-magnitude spectrum of Eq. 4 in the paper, computed with a
// real-input (half-spectrum) 2-D transform.
//
// Everything is implemented from scratch on []complex128; no external
// numerical libraries are used.
package fourier

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"decamouflage/internal/parallel"
)

// ErrEmpty indicates a zero-length transform request.
var ErrEmpty = errors.New("fourier: empty input")

// FFT computes the forward discrete Fourier transform of x and returns a
// new slice. Any length is supported: powers of two use the radix-2
// Cooley-Tukey algorithm, lengths with small prime factors a mixed-radix
// Cooley-Tukey algorithm, and the rest Bluestein's chirp-z algorithm.
// Transforms run through the cached Plan for the length (see plan.go);
// planned output is bit-identical to the textbook form of the same kernel
// kept in reference_test.go.
func FFT(x []complex128) ([]complex128, error) {
	if len(x) == 0 {
		return nil, ErrEmpty
	}
	p, err := PlanFor(len(x), false)
	if err != nil {
		return nil, err
	}
	out := append([]complex128(nil), x...)
	if err := p.Transform(out); err != nil {
		return nil, err
	}
	return out, nil
}

// IFFT computes the inverse discrete Fourier transform of x (with the 1/n
// normalization) and returns a new slice.
func IFFT(x []complex128) ([]complex128, error) {
	if len(x) == 0 {
		return nil, ErrEmpty
	}
	p, err := PlanFor(len(x), true)
	if err != nil {
		return nil, err
	}
	out := append([]complex128(nil), x...)
	if err := p.Transform(out); err != nil {
		return nil, err
	}
	n := complex(float64(len(out)), 0)
	for i := range out {
		out[i] /= n
	}
	return out, nil
}

// Matrix is a dense complex matrix in row-major order, the working
// representation for 2-D spectra.
type Matrix struct {
	W, H int
	Data []complex128
}

// NewMatrix returns a zero-filled complex matrix.
func NewMatrix(w, h int) (*Matrix, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("fourier: invalid matrix size %dx%d", w, h)
	}
	return &Matrix{W: w, H: h, Data: make([]complex128, w*h)}, nil
}

// At returns element (x, y).
func (m *Matrix) At(x, y int) complex128 { return m.Data[y*m.W+x] }

// Set writes element (x, y).
func (m *Matrix) Set(x, y int, v complex128) { m.Data[y*m.W+x] = v }

// FromReal builds a complex matrix from real row-major samples.
func FromReal(data []float64, w, h int) (*Matrix, error) {
	if len(data) != w*h {
		return nil, fmt.Errorf("fourier: data length %d does not match %dx%d", len(data), w, h)
	}
	m, err := NewMatrix(w, h)
	if err != nil {
		return nil, err
	}
	for i, v := range data {
		m.Data[i] = complex(v, 0)
	}
	return m, nil
}

// FFT2D computes the forward 2-D DFT (rows then columns) of m into a new
// matrix.
func FFT2D(m *Matrix) (*Matrix, error) {
	return transform2D(context.Background(), m, false)
}

// IFFT2D computes the inverse 2-D DFT of m into a new matrix, including the
// 1/(W*H) normalization.
func IFFT2D(m *Matrix) (*Matrix, error) {
	out, err := transform2D(context.Background(), m, true)
	if err != nil {
		return nil, err
	}
	n := complex(float64(m.W*m.H), 0)
	for i := range out.Data {
		out.Data[i] /= n
	}
	return out, nil
}

// minTransformWork is the per-chunk grain (in matrix elements) below which
// the 1-D passes of transform2D stay on the calling goroutine.
const minTransformWork = 1 << 13

// colScratch pools the per-chunk column gather buffers of transform2D so
// repeated 2-D transforms of the same geometry allocate nothing per pass.
var colScratch = sync.Pool{New: func() any { return &[]complex128{} }}

func transform2D(ctx context.Context, m *Matrix, inverse bool, opts ...parallel.Option) (*Matrix, error) {
	if m == nil || m.W == 0 || m.H == 0 {
		return nil, ErrEmpty
	}
	// One plan per axis, fetched once and shared by every row/column of the
	// pass (plans are concurrency-safe).
	rowPlan, err := PlanFor(m.W, inverse)
	if err != nil {
		return nil, err
	}
	colPlan, err := PlanFor(m.H, inverse)
	if err != nil {
		return nil, err
	}
	return transform2DWith(ctx, m, rowPlan, colPlan, opts...)
}

// CenteredSpectrum computes the centered log-magnitude spectrum of a real
// 2-D signal: DFT, fftshift, then log(1+|F|), normalized to [0, 1] by the
// spectrum's own maximum. This is the "centered spectrum" image the paper's
// steganalysis method binarizes and runs contour counting on. It resolves
// a plan from the shared cache and runs Plan2D.CenteredSpectrumInto.
func CenteredSpectrum(data []float64, w, h int) ([]float64, error) {
	return CenteredSpectrumWith(context.Background(), nil, data, w, h)
}
