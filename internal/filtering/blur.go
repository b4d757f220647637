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

// offsPool recycles Blur's per-chunk tap offset tables. Tables are not
// zeroed on reuse: each pass assigns every entry before convolveTaps
// reads it.
var offsPool = sync.Pool{New: func() any { return new([]int) }}

// getOffsets borrows an n-entry tap offset table.
//
//declint:owns
func getOffsets(n int) *[]int {
	op := offsPool.Get().(*[]int)
	if cap(*op) < n {
		*op = make([]int, n)
	}
	*op = (*op)[:n]
	return op
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
		op := getOffsets(len(kern))
		defer offsPool.Put(op)
		offs := *op
		for i := range offs {
			offs[i] = i
		}
		for y := yLo; y < yHi; y++ {
			off := y * w
			for j, p := range in {
				row := p.X[off : off+w]
				if p.Y != nil {
					multiplyRow(prod, row, p.Y[off:off+w])
					row = prod
				}
				convolveRow(tmp[j][off:off+w], row, kern, offs, r)
			}
		}
		return nil
	}, opts...)
	if err != nil {
		return err
	}
	// Vertical: chunks own disjoint output row bands, reading all of tmp.
	// Tap k of output row y reads tmp row clamp(y−r+k), so every row, the
	// border rows included, is one convolveTaps over its offset table.
	return parallel.For(ctx, h, func(yLo, yHi int) error {
		rp := getRows(k * w)
		defer rowPool.Put(rp)
		rows := *rp
		op := getOffsets(len(kern))
		defer offsPool.Put(op)
		offs := *op
		for y := yLo; y < yHi; y++ {
			for i := range offs {
				offs[i] = min(max(y-r+i, 0), h-1) * w
			}
			for j := 0; j < k; j++ {
				convolveTaps(rows[j*w:(j+1)*w], tmp[j], offs, kern)
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
// out (len(out) == len(row)). offs is the identity table 0..len(kern)−1:
// the interior columns [r, w−r), whose window lies inside the row, are one
// convolveTaps over row, and only the r columns at each end clamp.
//
//declint:hot
func convolveRow(out, row []float64, kern []float64, offs []int, r int) {
	w := len(row)
	lo := min(r, w)
	hi := max(w-r, lo)
	for x := 0; x < lo; x++ {
		out[x] = convolveClampedAt(row, w, kern, r, x)
	}
	if hi > lo {
		convolveTaps(out[lo:hi], row, offs, kern)
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

// haveTaps16 reports whether convolveTaps hands its 16-sample blocks to
// the amd64 AVX2 kernel taps16. It is set once at package init from the
// CPU; tests clear it to run the portable loop on the same inputs.
var haveTaps16 = taps16Supported()

// convolveTaps sets out[x] = Σ_k kern[k]·src[offs[k]+x] for every x in
// [0, len(out)): every sample starts from +0 and adds its products in
// ascending k, each product rounded before it is added, so on either path
// it has the bits of the plain scalar loop. offs must have len(kern)
// entries, and every offs[k]+x must index src.
//
// Whole blocks of 16 samples go to taps16 where the CPU has it. The rest,
// and everything on other CPUs, runs the portable loop: four samples per
// iteration, each in its own accumulator, so four add chains overlap.
//
//declint:hot
func convolveTaps(out, src []float64, offs []int, kern []float64) {
	offs = offs[:len(kern)]
	x := 0
	if n := len(out) &^ 15; haveTaps16 && n > 0 {
		// taps16 reads src unchecked.
		for _, o := range offs {
			if o < 0 || o+n > len(src) {
				panic("filtering: tap offset outside the source")
			}
		}
		taps16(&out[0], &src[0], &offs[0], &kern[0], len(kern), n)
		x = n
	}
	for ; x+3 < len(out); x += 4 {
		var s0, s1, s2, s3 float64
		for k, c := range kern {
			// One slice per tap, so the four loads carry no bounds checks.
			t := src[offs[k]+x : offs[k]+x+4 : offs[k]+x+4]
			s0 += c * t[0]
			s1 += c * t[1]
			s2 += c * t[2]
			s3 += c * t[3]
		}
		out[x] = s0
		out[x+1] = s1
		out[x+2] = s2
		out[x+3] = s3
	}
	for ; x < len(out); x++ {
		var s float64
		for k, c := range kern {
			s += c * src[offs[k]+x]
		}
		out[x] = s
	}
}
