// 2-D transform plans. A Plan2D bundles the row- and column-direction 1-D
// plans of a forward 2-D DFT for one geometry, so callers that transform
// many same-sized signals (the detection pipeline scoring a batch of
// images) resolve the plan cache once per geometry instead of twice per
// image. The centered spectrum of Eq. 4 has exactly one implementation,
// Plan2D.CenteredSpectrumInto; CenteredSpectrum and CenteredSpectrumWith
// are entry points onto it, so every caller computes the same bits.
package fourier

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"sync"

	"decamouflage/internal/parallel"
)

// Plan2D is an immutable forward 2-D DFT descriptor for one (W, H)
// geometry. It is safe for concurrent use, like the 1-D plans it bundles.
type Plan2D struct {
	row *Plan // length W, forward
	col *Plan // length H, forward
}

// Plan2DFor returns the forward 2-D plan for a w×h signal, drawing both
// axis plans from the shared plan cache (PlanFor).
func Plan2DFor(w, h int) (*Plan2D, error) {
	row, err := PlanFor(w, false)
	if err != nil {
		return nil, err
	}
	col, err := PlanFor(h, false)
	if err != nil {
		return nil, err
	}
	return &Plan2D{row: row, col: col}, nil
}

// Size returns the geometry the plan was built for.
func (p *Plan2D) Size() (w, h int) { return p.row.N(), p.col.N() }

// CenteredSpectrumWith is CenteredSpectrum executing through a prepared
// plan and honouring ctx cancellation in its parallel passes. A nil plan
// resolves one from the shared cache; a non-nil plan must match (w, h).
func CenteredSpectrumWith(ctx context.Context, p *Plan2D, data []float64, w, h int) ([]float64, error) {
	if len(data) != w*h {
		return nil, fmt.Errorf("fourier: data length %d does not match %dx%d", len(data), w, h)
	}
	if p == nil {
		var err error
		if p, err = Plan2DFor(w, h); err != nil {
			return nil, err
		}
	} else if pw, ph := p.Size(); pw != w || ph != h {
		return nil, fmt.Errorf("fourier: plan geometry %dx%d does not match signal %dx%d", pw, ph, w, h)
	}
	dst := make([]float64, w*h)
	if err := p.CenteredSpectrumInto(ctx, data, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// specScratch pools the complex working buffers of CenteredSpectrumInto,
// so a batch of same-geometry spectra (DetectBatch scoring many images
// through one plan) allocates its transform state once, not per image.
var specScratch = sync.Pool{New: func() any { return new([]complex128) }}

// CenteredSpectrumInto computes the centered log-magnitude spectrum of a
// real (w×h) signal into dst, both sized to the plan's geometry: the 2-D
// DFT, fftshift, log(1+|F|), normalized to [0, 1] by its maximum.
//
// The input is real, so its spectrum is Hermitian: F(w−u, h−v) =
// conj(F(u, v)). The row pass packs rows 2j and 2j+1 into one complex row
// and splits the transform into both rows' half spectra; the column pass
// transforms only columns 0..w/2; and the fused tail computes log(1+|F|)
// once per stored element, writing it at the element's shifted position
// and at its mirror's. One pooled complex buffer holds the transform;
// its columns above w/2 hold stale values and are never read. Parallel
// chunks depend only on the geometry, so output is bit-identical across
// worker counts; opts pin the worker count of both passes.
func (p *Plan2D) CenteredSpectrumInto(ctx context.Context, data []float64, dst []float64, opts ...parallel.Option) error {
	w, h := p.Size()
	if len(data) != w*h {
		return fmt.Errorf("fourier: data length %d does not match plan geometry %dx%d", len(data), w, h)
	}
	if len(dst) != w*h {
		return fmt.Errorf("fourier: dst length %d does not match plan geometry %dx%d", len(dst), w, h)
	}
	bp := specScratch.Get().(*[]complex128)
	defer specScratch.Put(bp)
	buf := *bp
	if cap(buf) < w*h {
		buf = make([]complex128, w*h)
		*bp = buf
	}
	buf = buf[:w*h]
	if err := realRowPass(ctx, buf, data, w, h, p.row, opts...); err != nil {
		return err
	}
	if err := columnPass(ctx, buf, w, h, w/2+1, p.col, opts...); err != nil {
		return err
	}
	centeredInto(dst, buf, w, h)
	return nil
}

// realRowPass writes the row DFTs of the real (w×h) signal data into
// columns 0..w/2 of buf. Rows 2j and 2j+1 travel as the real and
// imaginary parts of one complex row, so one transform serves two rows;
// an odd last row is transformed on its own with a zero imaginary part.
func realRowPass(ctx context.Context, buf []complex128, data []float64, w, h int, rowPlan *Plan, opts ...parallel.Option) error {
	rowOpts := append([]parallel.Option{
		parallel.Grain(parallel.GrainForWidth(2*w, minTransformWork)),
	}, opts...)
	return parallel.For(ctx, (h+1)/2, func(lo, hi int) error {
		for j := lo; j < hi; j++ {
			y := 2 * j
			z := buf[y*w : (y+1)*w]
			a := data[y*w : (y+1)*w]
			if y+1 == h {
				for x, v := range a {
					z[x] = complex(v, 0)
				}
				if err := rowPlan.Transform(z); err != nil {
					return err
				}
				continue
			}
			b := data[(y+1)*w : (y+2)*w]
			for x, v := range a {
				z[x] = complex(v, b[x])
			}
			if err := rowPlan.Transform(z); err != nil {
				return err
			}
			splitRows(z, buf[(y+1)*w:(y+2)*w])
		}
		return nil
	}, rowOpts...)
}

// splitRows separates the DFT Z of a packed row pair z = a + i·b into the
// half spectra of a and b: A[k] = (Z[k] + conj(Z[w−k]))/2 overwrites z[k]
// and B[k] = (Z[k] − conj(Z[w−k]))/2i goes to odd[k], for k <= w/2. Both
// inputs of bin k are read before it is written, and the only bins read
// after being written are k itself (k = 0, and k = w/2 for even w), so
// the split runs in place.
//
//declint:hot
func splitRows(z, odd []complex128) {
	w := len(z)
	for k := 0; k <= w/2; k++ {
		m := w - k
		if k == 0 {
			m = 0
		}
		zr, zi := real(z[k]), imag(z[k])
		cr, ci := real(z[m]), imag(z[m])
		z[k] = complex((zr+cr)*0.5, (zi-ci)*0.5)
		odd[k] = complex((zi+ci)*0.5, (cr-zr)*0.5)
	}
}

// centeredInto is the fused tail of the real-input spectrum: spec holds
// F(u, v) for u <= w/2, and every other element is the conjugate of
// F(w−u, (h−v) mod h), with the same magnitude. Each stored element's
// log(1+|F|) is computed once and written to dst at its fftshift
// position and, for 0 < u < w−w/2, at its mirror's; the running maximum
// then normalizes dst to [0, 1].
//
//declint:hot
func centeredInto(dst []float64, spec []complex128, w, h int) {
	half, hw := w/2, w-w/2
	hh := h / 2
	var mx float64
	for y := 0; y < h; y++ {
		row := spec[y*w : y*w+half+1]
		ny := (y + hh) % h
		my := ((h-y)%h + hh) % h
		direct := dst[ny*w : (ny+1)*w]
		mirror := dst[my*w : (my+1)*w]
		// Column u lands at (u + w/2) mod w, its mirror w−u at w/2 − u.
		for u, v := range row {
			l := math.Log1p(cmplx.Abs(v))
			if l > mx {
				mx = l
			}
			nx := u + half
			if nx == w {
				nx = 0
			}
			direct[nx] = l
			if u > 0 && u < hw {
				mirror[half-u] = l
			}
		}
	}
	if mx > 0 {
		inv := 1 / mx
		for i := range dst {
			dst[i] *= inv
		}
	}
}

// transform2DWith is transform2D with both axis plans supplied by the
// caller; transform2D resolves them from the cache and delegates here.
func transform2DWith(ctx context.Context, m *Matrix, rowPlan, colPlan *Plan, opts ...parallel.Option) (*Matrix, error) {
	out := &Matrix{W: m.W, H: m.H, Data: append([]complex128(nil), m.Data...)}
	if err := transformPasses(ctx, out.Data, m.W, m.H, rowPlan, colPlan, opts...); err != nil {
		return nil, err
	}
	return out, nil
}

// colBlock is the number of columns gathered per transpose tile in the
// blocked column pass: each tile reads colBlock contiguous elements per
// row (one cache line of complex128s) instead of striding the full matrix
// once per column.
const colBlock = 8

// transformPasses runs the forward-or-inverse 2-D passes in place on a
// row-major (w×h) complex signal: every row, then every column.
func transformPasses(ctx context.Context, data []complex128, w, h int, rowPlan, colPlan *Plan, opts ...parallel.Option) error {
	// Rows: each chunk transforms a disjoint band of rows in place.
	rowOpts := append([]parallel.Option{
		parallel.Grain(parallel.GrainForWidth(w, minTransformWork)),
	}, opts...)
	err := parallel.For(ctx, h, func(lo, hi int) error {
		for y := lo; y < hi; y++ {
			if err := rowPlan.Transform(data[y*w : (y+1)*w]); err != nil {
				return err
			}
		}
		return nil
	}, rowOpts...)
	if err != nil {
		return err
	}
	return columnPass(ctx, data, w, h, w, colPlan, opts...)
}

// columnPass transforms columns [0, cols) of a row-major (w×h) complex
// signal in place through cache-blocked transposes. Each chunk gathers a
// tile of up to colBlock columns into pooled column-major scratch —
// walking the matrix row by row, so every row read is contiguous —
// transforms each gathered column in place, and scatters the tile back
// the same way. The per-column arithmetic is exactly that of a
// one-column-at-a-time pass; only the memory walk order changes, so
// results are bit-identical (pinned by the blocked-vs-reference
// equivalence test).
func columnPass(ctx context.Context, data []complex128, w, h, cols int, colPlan *Plan, opts ...parallel.Option) error {
	colOpts := append([]parallel.Option{
		parallel.Grain(parallel.GrainForWidth(h, minTransformWork)),
	}, opts...)
	return parallel.For(ctx, cols, func(lo, hi int) error {
		cp := colScratch.Get().(*[]complex128)
		defer colScratch.Put(cp)
		tile := *cp
		if cap(tile) < colBlock*h {
			tile = make([]complex128, colBlock*h)
			*cp = tile
		}
		tile = tile[:colBlock*h]
		for x0 := lo; x0 < hi; x0 += colBlock {
			nb := hi - x0
			if nb > colBlock {
				nb = colBlock
			}
			gatherColumns(tile, data, w, h, x0, nb)
			for k := 0; k < nb; k++ {
				if err := colPlan.Transform(tile[k*h : (k+1)*h]); err != nil {
					return err
				}
			}
			scatterColumns(data, tile, w, h, x0, nb)
		}
		return nil
	}, colOpts...)
}

// gatherColumns copies columns [x0, x0+nb) of a row-major (w×h) matrix
// into column-major tile storage: tile[k*h+y] = data[y*w+x0+k]. The
// outer loop walks rows, so each iteration reads nb contiguous elements.
//
//declint:hot
func gatherColumns(tile, data []complex128, w, h, x0, nb int) {
	for y := 0; y < h; y++ {
		row := data[y*w+x0 : y*w+x0+nb]
		for k, v := range row {
			tile[k*h+y] = v
		}
	}
}

// scatterColumns is the inverse of gatherColumns: it writes the tile's
// columns back into rows of the row-major matrix.
//
//declint:hot
func scatterColumns(data, tile []complex128, w, h, x0, nb int) {
	for y := 0; y < h; y++ {
		row := data[y*w+x0 : y*w+x0+nb]
		for k := range row {
			row[k] = tile[k*h+y]
		}
	}
}
