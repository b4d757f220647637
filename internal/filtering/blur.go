package filtering

import (
	"context"
	"math"
	"sync"

	"decamouflage/internal/parallel"
)

// GaussianKernel returns the normalized 1-D Gaussian window of radius r:
// the 2r+1 taps exp(-i²/2σ²), i = -r..r, divided by their sum. It is the
// repository's one Gaussian window builder, shared by SSIM's local moments,
// Gaussian smoothing and the steganalysis spectrum low-pass.
func GaussianKernel(r int, sigma float64) []float64 {
	k := make([]float64, 2*r+1)
	var sum float64
	for i := -r; i <= r; i++ {
		v := math.Exp(-float64(i*i) / (2 * sigma * sigma))
		k[i+r] = v
		sum += v
	}
	for i := range k {
		k[i] /= sum
	}
	return k
}

// blurPool recycles Blur's row-pass intermediate planes, one n-sample
// buffer per input plane, so a pooled buffer keeps the size of the planes
// it serves whatever k its last user blurred. Buffers are not zeroed on
// reuse: the row pass assigns every sample before the column pass reads
// it.
var blurPool = sync.Pool{New: func() any { return new([]float64) }}

// planeSetPool recycles the lists that hold one Blur call's planes.
var planeSetPool = sync.Pool{New: func() any { return new(planeSet) }}

type planeSet struct {
	bufs   []*[]float64 // blurPool buffers, released by putPlanes
	planes [][]float64  // the same buffers, n samples each
}

// getPlanes borrows k n-sample planes from blurPool.
//
//declint:owns
func getPlanes(k, n int) *planeSet {
	ps := planeSetPool.Get().(*planeSet)
	for j := 0; j < k; j++ {
		bp := blurPool.Get().(*[]float64)
		if cap(*bp) < n {
			*bp = make([]float64, n)
		}
		ps.bufs = append(ps.bufs, bp)
		ps.planes = append(ps.planes, (*bp)[:n])
	}
	return ps
}

// putPlanes returns a getPlanes set and its planes to their pools. The
// pooled set keeps no reference to the planes.
//
//declint:transfers
func putPlanes(ps *planeSet) {
	for _, bp := range ps.bufs {
		blurPool.Put(bp)
	}
	clear(ps.bufs)
	clear(ps.planes)
	ps.bufs, ps.planes = ps.bufs[:0], ps.planes[:0]
	planeSetPool.Put(ps)
}

// rowPool recycles Blur's per-chunk row scratch: one product row for the
// row pass, and the k output rows handed to the sink. Rows are not zeroed
// on reuse: each is assigned in full before it is read.
var rowPool = sync.Pool{New: func() any { return new([]float64) }}

// getRows borrows n samples of row scratch.
//
//declint:owns
func getRows(n int) *[]float64 {
	bp := rowPool.Get().(*[]float64)
	if cap(*bp) < n {
		*bp = make([]float64, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// BlurInput is one input plane of Blur: the samples X, or the elementwise
// product X·Y when Y is non-nil. A product is formed one row at a time
// inside the row pass, so it never exists as a plane.
type BlurInput struct{ X, Y []float64 }

// BlurPlane convolves the row-major w×h single-channel plane src with the
// odd-length kernel kern along rows, then along columns, under replicate
// borders, writing dst (len(dst) == len(src) == w·h; dst must not alias
// src). It is Blur with one input whose sink copies each row into dst.
func BlurPlane(ctx context.Context, dst, src []float64, w, h int, kern []float64, popts ...parallel.Option) error {
	return Blur(ctx, []BlurInput{{X: src}}, w, h, kern, func(y int, row []float64) {
		copy(dst[y*w:(y+1)*w], row)
	}, popts...)
}

// Blur is the repository's one separable blur. It convolves the k = len(in)
// row-major w×h planes of in with the odd-length kernel kern along rows,
// then along columns, under replicate borders: one row pass and one column
// pass for all k planes. Output row y of every plane is handed to
// sink(y, rows) as soon as the column pass finishes it: rows holds the k
// rows back to back, plane j's at rows[j·w : (j+1)·w]. rows is scratch
// that is reused once sink returns, so sink keeps what it needs by
// copying or reducing it. sink runs concurrently for different rows and
// must write only state that row y owns.
//
// Each pass runs in parallel bands over disjoint rows. Every output sample
// sums its taps in ascending order starting from zero, whatever the band
// split, so the result is bit-identical for every worker count and for
// every k. Cancellation between bands propagates as an error.
func Blur(ctx context.Context, in []BlurInput, w, h int, kern []float64, sink func(y int, rows []float64), popts ...parallel.Option) error {
	k, n, r := len(in), w*h, (len(kern)-1)/2
	ps := getPlanes(k, n)
	defer putPlanes(ps)
	tmp := ps.planes
	opts := append([]parallel.Option{
		parallel.Grain(parallel.GrainForWidth(k*w*len(kern), minFilterWork)),
	}, popts...)
	// Horizontal: chunks own disjoint row bands of every tmp plane.
	err := parallel.For(ctx, h, func(yLo, yHi int) error {
		pp := getRows(w)
		defer rowPool.Put(pp)
		prod := *pp
		for y := yLo; y < yHi; y++ {
			off := y * w
			for j, p := range in {
				row := p.X[off : off+w]
				if p.Y != nil {
					multiplyRow(prod, row, p.Y[off:off+w])
					row = prod
				}
				convolveRow(tmp[j][off:off+w], row, kern, r)
			}
		}
		return nil
	}, opts...)
	if err != nil {
		return err
	}
	// Vertical: chunks own disjoint output row bands, reading all of tmp.
	return parallel.For(ctx, h, func(yLo, yHi int) error {
		rp := getRows(k * w)
		defer rowPool.Put(rp)
		rows := *rp
		for y := yLo; y < yHi; y++ {
			for j := 0; j < k; j++ {
				convolveColRow(rows[j*w:(j+1)*w], tmp[j], w, h, kern, r, y)
			}
			sink(y, rows)
		}
		return nil
	}, opts...)
}

// multiplyRow writes the elementwise product x·y into out.
//
//declint:hot
func multiplyRow(out, x, y []float64) {
	y = y[:len(x)]
	out = out[:len(x)]
	for i, v := range x {
		out[i] = v * y[i]
	}
}

// convolveRow writes row convolved with kern under replicate clamping into
// out (len(out) == len(row)).
//
//declint:hot
func convolveRow(out, row []float64, kern []float64, r int) {
	w := len(row)
	// Interior columns [lo, hi) have the kernel fully inside the row, so
	// the clamp branches vanish from the inner loop. The per-element tap
	// order (k ascending) matches the clamped loop exactly, keeping the
	// result bit-identical.
	lo := r
	if lo > w {
		lo = w
	}
	hi := w - r
	if hi < lo {
		hi = lo
	}
	for x := 0; x < lo; x++ {
		out[x] = convolveClampedAt(row, w, kern, r, x)
	}
	// Four output samples per iteration: each keeps its own accumulator
	// summing taps in ascending k, so every sample's addition order — and
	// therefore its bits — match the scalar loop, while the four
	// independent chains hide the float64 add latency the scalar loop
	// serializes on.
	x := lo
	for ; x+3 < hi; x += 4 {
		var s0, s1, s2, s3 float64
		// One window per sample, each len(kern) long, so the tap loop
		// carries no bounds checks.
		base := x - r
		w0 := row[base : base+len(kern)]
		w1 := row[base+1 : base+1+len(kern)]
		w2 := row[base+2 : base+2+len(kern)]
		w3 := row[base+3 : base+3+len(kern)]
		for k, c := range kern {
			s0 += c * w0[k]
			s1 += c * w1[k]
			s2 += c * w2[k]
			s3 += c * w3[k]
		}
		out[x] = s0
		out[x+1] = s1
		out[x+2] = s2
		out[x+3] = s3
	}
	for ; x < hi; x++ {
		var s float64
		base := x - r
		for k := range kern {
			s += kern[k] * row[base+k]
		}
		out[x] = s
	}
	for x := hi; x < w; x++ {
		out[x] = convolveClampedAt(row, w, kern, r, x)
	}
}

// convolveClampedAt computes one output sample with replicate clamping,
// taps in ascending k order.
//
//declint:hot
func convolveClampedAt(row []float64, w int, kern []float64, r, x int) float64 {
	var s float64
	for k := -r; k <= r; k++ {
		xx := x + k
		if xx < 0 {
			xx = 0
		} else if xx >= w {
			xx = w - 1
		}
		s += kern[k+r] * row[xx]
	}
	return s
}

// convolveColRow writes output row y of the vertical pass into out: sample
// x is column x of the w×h plane tmp convolved with kern under replicate
// clamping, taps in ascending k order.
//
//declint:hot
func convolveColRow(out, tmp []float64, w, h int, kern []float64, r, y int) {
	if y < r || y >= h-r {
		// Edge rows: the window crosses the top or bottom border.
		for x := 0; x < w; x++ {
			var s float64
			for k := -r; k <= r; k++ {
				yy := y + k
				if yy < 0 {
					yy = 0
				} else if yy >= h {
					yy = h - 1
				}
				s += kern[k+r] * tmp[yy*w+x]
			}
			out[x] = s
		}
		return
	}
	// Interior rows need no clamping, and each tap reads a contiguous tmp
	// row. Same four-accumulator shape as convolveRow: per-sample tap order
	// stays k ascending (bit-identical to the scalar loop), and the four
	// independent sums break the serial float64 add chain that otherwise
	// bounds the column pass.
	base := (y - r) * w
	x := 0
	for ; x+3 < w; x += 4 {
		var s0, s1, s2, s3 float64
		idx := base + x
		for k := range kern {
			c := kern[k]
			s0 += c * tmp[idx]
			s1 += c * tmp[idx+1]
			s2 += c * tmp[idx+2]
			s3 += c * tmp[idx+3]
			idx += w
		}
		out[x] = s0
		out[x+1] = s1
		out[x+2] = s2
		out[x+3] = s3
	}
	for ; x < w; x++ {
		var s float64
		idx := base + x
		for k := range kern {
			s += kern[k] * tmp[idx]
			idx += w
		}
		out[x] = s
	}
}
