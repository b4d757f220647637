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

// blurPool recycles BlurPlane's row-pass intermediate plane. Buffers are
// not zeroed on reuse: the row pass assigns every sample before the column
// pass reads it.
var blurPool = sync.Pool{New: func() any { return new([]float64) }}

// BlurPlane convolves the row-major w×h single-channel plane src with the
// odd-length kernel kern along rows, then along columns, under replicate
// borders, writing dst (len(dst) == len(src) == w·h; dst must not alias
// src). It is the repository's one separable blur.
//
// Each pass runs in parallel bands over disjoint output rows or columns.
// Every output sample sums its taps in ascending order starting from zero,
// whatever the band split, so the result is bit-identical for every worker
// count. Cancellation between passes propagates as an error.
func BlurPlane(ctx context.Context, dst, src []float64, w, h int, kern []float64, popts ...parallel.Option) error {
	r := (len(kern) - 1) / 2
	tp := blurPool.Get().(*[]float64)
	defer blurPool.Put(tp)
	if cap(*tp) < len(src) {
		*tp = make([]float64, len(src))
	}
	tmp := (*tp)[:len(src)]
	// Horizontal: chunks own disjoint row bands of tmp.
	rowOpts := append([]parallel.Option{
		parallel.Grain(parallel.GrainForWidth(w*len(kern), minFilterWork)),
	}, popts...)
	err := parallel.For(ctx, h, func(yLo, yHi int) error {
		convolveRows(tmp, src, w, kern, r, yLo, yHi)
		return nil
	}, rowOpts...)
	if err != nil {
		return err
	}
	// Vertical: chunks own disjoint column bands of dst, reading all of tmp.
	colOpts := append([]parallel.Option{
		parallel.Grain(parallel.GrainForWidth(h*len(kern), minFilterWork)),
	}, popts...)
	return parallel.For(ctx, w, func(xLo, xHi int) error {
		convolveCols(dst, tmp, w, h, kern, r, xLo, xHi)
		return nil
	}, colOpts...)
}

// convolveRows writes the horizontal pass for rows [yLo, yHi): tmp row y is
// src row y convolved with kern under replicate clamping.
//
//declint:hot
func convolveRows(tmp, src []float64, w int, kern []float64, r, yLo, yHi int) {
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
	for y := yLo; y < yHi; y++ {
		row := src[y*w : (y+1)*w]
		out := tmp[y*w : (y+1)*w]
		for x := 0; x < lo; x++ {
			out[x] = convolveClampedAt(row, w, kern, r, x)
		}
		// Four output samples per iteration: each keeps its own
		// accumulator summing taps in ascending k, so every sample's
		// addition order — and therefore its bits — match the scalar
		// loop, while the four independent chains hide the float64 add
		// latency the scalar loop serializes on.
		x := lo
		for ; x+3 < hi; x += 4 {
			var s0, s1, s2, s3 float64
			base := x - r
			for k := range kern {
				c := kern[k]
				s0 += c * row[base+k]
				s1 += c * row[base+k+1]
				s2 += c * row[base+k+2]
				s3 += c * row[base+k+3]
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

// convolveCols writes the vertical pass for columns [xLo, xHi): dst column
// x is tmp column x convolved with kern under replicate clamping.
//
//declint:hot
func convolveCols(dst, tmp []float64, w, h int, kern []float64, r, xLo, xHi int) {
	// Interior rows [lo, hi) need no clamping; iterating y outermost and
	// x innermost turns the column walk into contiguous row reads. The
	// per-element tap order (k ascending) is unchanged either way, so the
	// sums are bit-identical to the clamped loop.
	lo := r
	if lo > h {
		lo = h
	}
	hi := h - r
	if hi < lo {
		hi = lo
	}
	for y := 0; y < lo; y++ {
		convolveColsClampedRow(dst, tmp, w, h, kern, r, xLo, xHi, y)
	}
	for y := lo; y < hi; y++ {
		base := (y - r) * w
		out := dst[y*w : (y+1)*w]
		// Same four-accumulator shape as convolveRows: per-sample tap
		// order stays k ascending (bit-identical to the scalar loop),
		// and the four independent sums break the serial float64 add
		// chain that otherwise bounds the column pass.
		x := xLo
		for ; x+3 < xHi; x += 4 {
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
		for ; x < xHi; x++ {
			var s float64
			idx := base + x
			for k := range kern {
				s += kern[k] * tmp[idx]
				idx += w
			}
			out[x] = s
		}
	}
	for y := hi; y < h; y++ {
		convolveColsClampedRow(dst, tmp, w, h, kern, r, xLo, xHi, y)
	}
}

// convolveColsClampedRow computes output row y of the vertical pass with
// replicate clamping, taps in ascending k order.
//
//declint:hot
func convolveColsClampedRow(dst, tmp []float64, w, h int, kern []float64, r, xLo, xHi, y int) {
	out := dst[y*w : (y+1)*w]
	for x := xLo; x < xHi; x++ {
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
}
