// The erosion kernel: the van Herk–Gil–Werman (vHGW) two-pass
// monotone-wedge minimum, run separably (rows then columns) — O(1)
// comparisons per sample independent of window size. It is the one body
// behind the minimum filter. minimumInto, the body of Minimum, MinimumCtx
// and MinimumInto, is the one place that picks its lane: the uint8
// instantiation of the generic erode below for inputs whose samples are
// all 8-bit integers, the float64 one otherwise; MinimumU8Ctx (fastu8.go)
// runs the uint8 instantiation on an 8-bit image directly. Because the
// kernel only compares, its output is bit-identical to the naive window
// scan in filtering.go for finite inputs, and integer comparisons order
// exactly like comparisons on their float64 images, so the two lanes
// agree bit for bit after FromU8.
//
// The sweep preserves the naive path's replicate-clamp border semantics
// and OpenCV anchoring exactly: even sizes anchor top-left (offsets
// [0, size)), odd sizes center (offsets [-size/2, size/2]). Scratch
// buffers are allocated once per parallel band and reused across that
// band's rows or columns.
package filtering

import (
	"context"
	"fmt"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/parallel"
)

// sample is a pixel lane the erosion kernel runs over: the float64
// samples of imgcore.Image or the 8-bit samples of imgcore.U8Image.
type sample interface{ uint8 | float64 }

// windowOffsets returns the OpenCV-anchored tap range [lo, hi] for a window
// of the given size: top-left anchored for even sizes, centered for odd.
func windowOffsets(size int) (lo, hi int) {
	lo = 0
	if size%2 == 1 {
		lo = -(size / 2)
	}
	return lo, lo + size - 1
}

// checkWindow rejects window sizes below 2.
func checkWindow(size int) error {
	if size < 2 {
		return fmt.Errorf("%w: got %d", ErrBadWindow, size)
	}
	return nil
}

// padClamped fills dst (length n+size-1) with src samples under replicate
// clamping such that the window of output i covers dst[i : i+size]:
// dst[t] = src[clamp(t+lo)] at the given stride.
//
//declint:hot
func padClamped[T sample](dst, src []T, n, stride, lo int) {
	for t := range dst {
		j := t + lo
		if j < 0 {
			j = 0
		} else if j >= n {
			j = n - 1
		}
		dst[t] = src[j*stride]
	}
}

// slidingMin writes out[i] = min(padded[i : i+w]) for every i in
// [0, len(padded)-w+1) using van Herk–Gil–Werman: one backward suffix-wedge
// pass and one forward prefix-wedge pass over blocks of w samples, then a
// single min per output — ~3 comparisons per sample regardless of w.
// wedge is scratch of len(padded).
//
//declint:hot
func slidingMin[T sample](out, padded, wedge []T, w int) {
	p := len(padded)
	if w == 2 {
		// The paper's 2×2 hot path: one comparison per sample beats the
		// wedge bookkeeping.
		for i := range out {
			if padded[i+1] < padded[i] {
				out[i] = padded[i+1]
			} else {
				out[i] = padded[i]
			}
		}
		return
	}
	// Backward pass: wedge[t] = min(padded[t : blockEnd]) within t's block.
	for t := p - 1; t >= 0; t-- {
		if t == p-1 || (t+1)%w == 0 {
			wedge[t] = padded[t]
		} else if padded[t] < wedge[t+1] {
			wedge[t] = padded[t]
		} else {
			wedge[t] = wedge[t+1]
		}
	}
	// Forward pass fused with output: prefix[t] = min(padded[blockStart : t+1]).
	var prefix T
	for t := 0; t < p; t++ {
		if t%w == 0 {
			prefix = padded[t]
		} else if padded[t] < prefix {
			prefix = padded[t]
		}
		if i := t - w + 1; i >= 0 {
			if wedge[i] < prefix {
				out[i] = wedge[i]
			} else {
				out[i] = prefix
			}
		}
	}
}

// erode writes the size×size minimum of the interleaved w×h×c plane src
// into dst: a horizontal vHGW sweep into tmp, then a vertical vHGW sweep
// of tmp into dst. Per-axis clamping makes the rectangular window exactly
// separable: minimum over {(clampX(x+dx), clampY(y+dy))} = vertical
// minimum of per-row horizontal minima. tmp must not alias src or dst;
// dst may be src, because the horizontal sweep has read all of src before
// the vertical sweep writes dst. size must be at least 2.
func erode[T sample](ctx context.Context, dst, tmp, src []T, w, h, c, size int, popts ...parallel.Option) error {
	lo, _ := windowOffsets(size)

	// Horizontal: each chunk owns a disjoint band of rows of tmp; scratch is
	// allocated once per band and reused across its rows and channels.
	hOpts := append([]parallel.Option{
		parallel.Grain(parallel.GrainForWidth(w*c, minFilterWork)),
	}, popts...)
	err := parallel.For(ctx, h, func(yLo, yHi int) error {
		padded := make([]T, w+size-1)
		wedge := make([]T, len(padded))
		line := make([]T, w)
		for y := yLo; y < yHi; y++ {
			for ch := 0; ch < c; ch++ {
				padClamped(padded, src[(y*w)*c+ch:], w, c, lo)
				slidingMin(line, padded, wedge, size)
				for x := 0; x < w; x++ {
					tmp[(y*w+x)*c+ch] = line[x]
				}
			}
		}
		return nil
	}, hOpts...)
	if err != nil {
		return err
	}

	// Vertical: each chunk owns a disjoint band of columns of dst, reading
	// all of tmp; each column is gathered, swept, and scattered through the
	// band's scratch.
	vOpts := append([]parallel.Option{
		parallel.Grain(parallel.GrainForWidth(h*c, minFilterWork)),
	}, popts...)
	return parallel.For(ctx, w, func(xLo, xHi int) error {
		padded := make([]T, h+size-1)
		wedge := make([]T, len(padded))
		line := make([]T, h)
		for x := xLo; x < xHi; x++ {
			for ch := 0; ch < c; ch++ {
				padClamped(padded, tmp[x*c+ch:], h, w*c, lo)
				slidingMin(line, padded, wedge, size)
				for y := 0; y < h; y++ {
					dst[(y*w+x)*c+ch] = line[y]
				}
			}
		}
		return nil
	}, vOpts...)
}

// minimumInto is MinimumInto with parallel options threaded through, and
// the one place that picks the lane: a src whose samples are all 8-bit
// integers is narrowed once, eroded in place over that private uint8 view
// (one byte per sample instead of eight) and widened into dst; any other
// src is eroded over float64.
func minimumInto(ctx context.Context, src, dst *imgcore.Image, size int, popts ...parallel.Option) error {
	if err := src.Validate(); err != nil {
		return err
	}
	if err := dst.Validate(); err != nil {
		return err
	}
	if dst.W != src.W || dst.H != src.H || dst.C != src.C {
		return fmt.Errorf("%w: dst %dx%dx%d, want %dx%dx%d",
			imgcore.ErrShapeMismatch, dst.W, dst.H, dst.C, src.W, src.H, src.C)
	}
	if err := checkWindow(size); err != nil {
		return err
	}
	if u, ok := src.ToU8(); ok {
		if err := erode(ctx, u.Pix, make([]uint8, len(u.Pix)), u.Pix, u.W, u.H, u.C, size, popts...); err != nil {
			return err
		}
		return imgcore.FromU8Into(u, dst)
	}
	return erode(ctx, dst.Pix, make([]float64, len(src.Pix)), src.Pix, src.W, src.H, src.C, size, popts...)
}
