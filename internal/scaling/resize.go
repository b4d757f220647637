package scaling

import (
	"context"
	"fmt"
	"sync"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/parallel"
)

// Scaler resizes images to a fixed destination geometry using a fixed
// algorithm; it caches the coefficient matrices so repeated resizes of
// same-sized inputs cost only the matrix application. A Scaler also exposes
// its coefficient matrices for use by the attack and by analysis tooling.
//
// Scaler is safe for concurrent use after construction; Resize does not
// mutate internal state for inputs matching the prepared source geometry
// and rebuilds (without caching) for other sizes.
type Scaler struct {
	opts  Options
	dstW  int
	dstH  int
	srcW  int
	srcH  int
	horiz *Coeff // w -> dstW
	vert  *Coeff // h -> dstH
}

// NewScaler prepares a scaler from (srcW×srcH) to (dstW×dstH). The
// coefficient matrices come from the shared cache (CoeffFor), so scalers
// of the same geometry share them.
func NewScaler(srcW, srcH, dstW, dstH int, opts Options) (*Scaler, error) {
	if srcW <= 0 || srcH <= 0 || dstW <= 0 || dstH <= 0 {
		return nil, fmt.Errorf("%w: src %dx%d dst %dx%d", ErrBadSize, srcW, srcH, dstW, dstH)
	}
	h, err := CoeffFor(srcW, dstW, opts)
	if err != nil {
		return nil, err
	}
	v, err := CoeffFor(srcH, dstH, opts)
	if err != nil {
		return nil, err
	}
	return &Scaler{opts: opts, dstW: dstW, dstH: dstH, srcW: srcW, srcH: srcH, horiz: h, vert: v}, nil
}

// Options returns the options the scaler was built with.
func (s *Scaler) Options() Options { return s.opts }

// DstSize returns the destination geometry.
func (s *Scaler) DstSize() (w, h int) { return s.dstW, s.dstH }

// SrcSize returns the prepared source geometry.
func (s *Scaler) SrcSize() (w, h int) { return s.srcW, s.srcH }

// Horizontal returns the prepared width-direction coefficient matrix
// (the R in scale(X) = L·X·Rᵀ).
func (s *Scaler) Horizontal() *Coeff { return s.horiz }

// Vertical returns the prepared height-direction coefficient matrix
// (the L in scale(X) = L·X·Rᵀ).
func (s *Scaler) Vertical() *Coeff { return s.vert }

// Resize resamples img to the scaler's destination geometry. Inputs whose
// size differs from the prepared source geometry are handled through the
// shared coefficient cache, so even the fallback path pays the build cost
// only once per geometry.
func (s *Scaler) Resize(img *imgcore.Image) (*imgcore.Image, error) {
	if err := img.Validate(); err != nil {
		return nil, err
	}
	horiz, vert := s.horiz, s.vert
	if img.W != s.srcW {
		var err error
		horiz, err = CoeffFor(img.W, s.dstW, s.opts)
		if err != nil {
			return nil, err
		}
	}
	if img.H != s.srcH {
		var err error
		vert, err = CoeffFor(img.H, s.dstH, s.opts)
		if err != nil {
			return nil, err
		}
	}
	return resizeWith(context.Background(), img, horiz, vert)
}

// Resize resamples img to (dstW×dstH) with the given options, drawing the
// coefficient matrices from the shared cache (CoeffFor); repeated resizes
// of the same geometry cost only the matrix application.
func Resize(img *imgcore.Image, dstW, dstH int, opts Options) (*imgcore.Image, error) {
	if err := img.Validate(); err != nil {
		return nil, err
	}
	horiz, err := CoeffFor(img.W, dstW, opts)
	if err != nil {
		return nil, err
	}
	vert, err := CoeffFor(img.H, dstH, opts)
	if err != nil {
		return nil, err
	}
	return resizeWith(context.Background(), img, horiz, vert)
}

// minResizeWork is the per-chunk grain (in output taps) below which a
// resize pass stays on the calling goroutine.
const minResizeWork = 1 << 14

// midPool recycles the mid row each chunk of the separable resize builds
// its output rows through (one vertically resampled source row, srcW × c
// samples), so steady-state resizes allocate only their output. The row is
// cleared before each output row's taps accumulate into it, so stale
// contents never leak.
var midPool = sync.Pool{New: func() any { return new([]float64) }}

// ResizeInto resamples img into dst, which must already have the scaler's
// destination geometry and img's channel count. It is the allocation-lean
// variant of Resize for callers that recycle output buffers; the pixels
// written are bit-identical to Resize's.
func (s *Scaler) ResizeInto(ctx context.Context, img, dst *imgcore.Image, popts ...parallel.Option) error {
	if err := img.Validate(); err != nil {
		return err
	}
	if err := dst.Validate(); err != nil {
		return err
	}
	if dst.W != s.dstW || dst.H != s.dstH || dst.C != img.C {
		return fmt.Errorf("%w: dst %dx%dx%d, want %dx%dx%d", ErrBadSize,
			dst.W, dst.H, dst.C, s.dstW, s.dstH, img.C)
	}
	horiz, vert := s.horiz, s.vert
	if img.W != s.srcW {
		var err error
		horiz, err = CoeffFor(img.W, s.dstW, s.opts)
		if err != nil {
			return err
		}
	}
	if img.H != s.srcH {
		var err error
		vert, err = CoeffFor(img.H, s.dstH, s.opts)
		if err != nil {
			return err
		}
	}
	return resizeInto(ctx, img, dst, horiz, vert, popts...)
}

// resizeWith applies the separable operator into a freshly allocated image.
func resizeWith(ctx context.Context, img *imgcore.Image, horiz, vert *Coeff, popts ...parallel.Option) (*imgcore.Image, error) {
	out, err := imgcore.New(horiz.M, vert.M, img.C)
	if err != nil {
		return nil, err
	}
	if err := resizeInto(ctx, img, out, horiz, vert, popts...); err != nil {
		return nil, err
	}
	return out, nil
}

// resizeInto applies the separable operator one output row at a time:
// mid row y is Σ_k W[k]·(source row Idx[k]) of the vertical operator,
// accumulated from zero in ascending k, and output row y is mid row y
// resampled by the horizontal operator, all channels in one walk. Every
// sample is therefore the same sum, in the same order, as the operator's
// per-sample definition (Coeff), and bands of output rows are disjoint, so
// the result is bit-identical to the serial order for any worker count.
// Each mid row is resampled while it is still in cache. out must be
// (horiz.M × vert.M × img.C); its prior contents are ignored.
func resizeInto(ctx context.Context, img, out *imgcore.Image, horiz, vert *Coeff, popts ...parallel.Option) error {
	c := img.C
	srcRow, dstRow := img.W*c, horiz.M*c
	rowCost := srcRow*vert.MaxTaps() + dstRow*horiz.MaxTaps()
	opts := append([]parallel.Option{
		parallel.Grain(parallel.GrainForWidth(rowCost, minResizeWork)),
	}, popts...)
	return parallel.For(ctx, vert.M, func(yLo, yHi int) error {
		mp := midPool.Get().(*[]float64)
		defer midPool.Put(mp)
		if cap(*mp) < srcRow {
			*mp = make([]float64, srcRow)
		}
		m := (*mp)[:srcRow]
		for y := yLo; y < yHi; y++ {
			clear(m)
			r := vert.Rows[y]
			for k, j := range r.Idx {
				axpy(m, r.W[k], img.Pix[j*srcRow:(j+1)*srcRow])
			}
			resampleRow(out.Pix[y*dstRow:(y+1)*dstRow], m, horiz, c)
		}
		return nil
	}, opts...)
}

// axpy adds w·x to acc elementwise: one tap of the vertical pass applied
// to a whole row.
//
//declint:hot
func axpy(acc []float64, w float64, x []float64) {
	x = x[:len(acc)]
	for i := range acc {
		acc[i] += w * x[i]
	}
}

// resampleRow applies h to one interleaved row of c channels: dst pixel i,
// channel ch is Σ_k W[k]·src[Idx[k]·c + ch], accumulated from zero in
// ascending k. The three-channel case keeps one accumulator per channel so
// each source pixel is read once.
//
//declint:hot
func resampleRow(dst, src []float64, h *Coeff, c int) {
	if c == 3 {
		for i, r := range h.Rows {
			var s0, s1, s2 float64
			for k, j := range r.Idx {
				w, p := r.W[k], src[j*3:j*3+3]
				s0 += w * p[0]
				s1 += w * p[1]
				s2 += w * p[2]
			}
			d := dst[i*3 : i*3+3]
			d[0], d[1], d[2] = s0, s1, s2
		}
		return
	}
	for i, r := range h.Rows {
		for ch := 0; ch < c; ch++ {
			var s float64
			for k, j := range r.Idx {
				s += r.W[k] * src[j*c+ch]
			}
			dst[i*c+ch] = s
		}
	}
}

// DownUp performs the paper's scaling-detection transform: downscale img to
// (dstW×dstH) and upscale the result back to img's own size, both with the
// same options. It returns both the downscaled and the round-tripped image.
func DownUp(img *imgcore.Image, dstW, dstH int, opts Options) (down, up *imgcore.Image, err error) {
	down, err = Resize(img, dstW, dstH, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("scaling: downscale: %w", err)
	}
	up, err = Resize(down, img.W, img.H, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("scaling: upscale: %w", err)
	}
	return down, up, nil
}
