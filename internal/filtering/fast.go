// The erosion kernel: a horizontal then a vertical sliding minimum, each
// pass walking whole rows of the interleaved plane. It is the one body
// behind the minimum filter. MinimumInto, the body of Minimum and
// MinimumCtx, is the one place that picks its lane: the uint8
// instantiation of the generic erode below for inputs whose samples are
// all 8-bit integers, the float64 one otherwise; MinimumU8Ctx (fastu8.go)
// runs the uint8 instantiation on an 8-bit image directly. Because the
// kernel only compares, its output is bit-identical to the naive window
// scan in filtering.go for finite inputs, and integer comparisons order
// exactly like comparisons on their float64 images, so the two lanes
// agree bit for bit after FromU8.
//
// The paper's 2×2 window is one contiguous row minimum per pass: each
// interleaved row against itself shifted by one pixel, then each row
// against the row below. Larger windows run the van Herk–Gil–Werman
// (vHGW) monotone-wedge recurrences with a pixel, then a whole row, as
// the unit, so a sample costs O(1) comparisons whatever the window. Both
// forms make the same comparisons per sample as the column-gather sweep
// they replaced (erodeReference in reference_test.go).
//
// The passes preserve the naive path's replicate-clamp border semantics
// and OpenCV anchoring exactly: even sizes anchor top-left (offsets
// [0, size)), odd sizes center (offsets [-size/2, size/2]). The vHGW
// wedge and prefix buffers are allocated once per parallel band of rows;
// the 2×2 form needs none.
package filtering

import (
	"context"
	"fmt"
	"math"

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

// minRowF64 writes the elementwise minimum of a and b into dst with the
// kernel's one selection rule, dst[i] = b[i] if b[i] < a[i], else a[i].
// Go's builtin min is a different rule on float64 (it differs on ±0 and
// NaN), so the float64 lane keeps the comparison; selecting between the
// two bit patterns lets the compiler emit a conditional move instead of a
// branch that natural images mispredict.
//
//declint:hot
func minRowF64(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		x, y := math.Float64bits(a[i]), math.Float64bits(b[i])
		if b[i] < a[i] {
			x = y
		}
		dst[i] = math.Float64frombits(x)
	}
}

// minRowU8 is minRowF64's rule on the uint8 lane, where it is the builtin
// min. The samples are widened to int so the selection compiles to a
// conditional move rather than a byte compare and branch.
//
//declint:hot
func minRowU8(dst, a, b []uint8) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = uint8(min(int(a[i]), int(b[i])))
	}
}

// laneMinRow returns the lane's row minimum, minRowU8 or minRowF64.
func laneMinRow[T sample]() func(dst, a, b []T) {
	if f, ok := any(minRowU8).(func(dst, a, b []T)); ok {
		return f
	}
	return any(minRowF64).(func(dst, a, b []T))
}

// clampedVec returns vector clamp(j) into [0, n) of src, a sequence of
// vectors of l samples each.
func clampedVec[T sample](src []T, j, n, l int) []T {
	j = max(0, min(j, n-1)) * l
	return src[j : j+l]
}

// slideMin is the van Herk–Gil–Werman sliding minimum over src, a
// sequence of n vectors of l samples each. Output vector i, written to
// out[i*l:][:l] for i in [iLo, iHi), is the elementwise minimum of the padded vectors t in [i, i+size), where padded
// vector t is source vector clamp(t+lo) into [0, n). Blocks of size
// padded vectors start at t = 0: a backward pass gives each t the suffix
// minimum of its block (wedge), a forward pass carries the block's prefix
// minimum, and each output takes one minimum of the two, so a sample
// costs about three comparisons whatever the size. A band [iLo, iHi)
// makes exactly the comparisons of a sweep over the whole sequence, since
// output i reads no padded vector before i. wedge holds at least
// (iHi-iLo+size-1)·l samples and prefix l.
//
//declint:hot
func slideMin[T sample](out, src []T, l, n, size, lo, iLo, iHi int, wedge, prefix []T, minRow func(dst, a, b []T)) {
	p := n + size - 1
	// Backward pass, from the end of the block holding iHi-1 (or of the
	// padded sequence) down to iLo.
	for t := min((iHi+size-1)/size*size, p) - 1; t >= iLo; t-- {
		wt := wedge[(t-iLo)*l:][:l]
		if t == p-1 || (t+1)%size == 0 {
			copy(wt, clampedVec(src, t+lo, n, l))
		} else {
			minRow(wt, wedge[(t+1-iLo)*l:][:l], clampedVec(src, t+lo, n, l))
		}
	}
	// Forward pass fused with the output: prefix is the minimum of the
	// padded vectors from t's block start through t. The first output's
	// block, the one holding iLo+size-1, starts at or after iLo.
	for t := (iLo + size - 1) / size * size; t < iHi+size-1; t++ {
		if t%size == 0 {
			copy(prefix, clampedVec(src, t+lo, n, l))
		} else {
			minRow(prefix, prefix, clampedVec(src, t+lo, n, l))
		}
		if i := t - size + 1; i >= iLo {
			minRow(out[i*l:][:l], prefix, wedge[(i-iLo)*l:][:l])
		}
	}
}

// erode writes the size×size minimum of the interleaved w×h×c plane src
// into dst: a horizontal pass into tmp, then a vertical pass of tmp into
// dst, both over whole rows. Per-axis clamping makes the rectangular
// window exactly separable: minimum over {(clampX(x+dx), clampY(y+dy))} =
// vertical minimum of per-row horizontal minima. A 2×2 window is one
// contiguous row minimum per pass (pixel x against x+1 in place along the
// interleaved row, then row y against row y+1); larger windows run
// slideMin with pixels, then rows, as its vectors. tmp must not alias src
// or dst; dst may be src, because the horizontal pass has read all of src
// before the vertical pass writes dst. size must be at least 2.
func erode[T sample](ctx context.Context, dst, tmp, src []T, w, h, c, size int, popts ...parallel.Option) error {
	lo, _ := windowOffsets(size)
	rowLen := w * c
	rowMin := laneMinRow[T]()

	// Horizontal: each chunk owns a disjoint band of rows of tmp and reads
	// its rows of src in place.
	opts := append([]parallel.Option{
		parallel.Grain(parallel.GrainForWidth(rowLen, minFilterWork)),
	}, popts...)
	err := parallel.For(ctx, h, func(yLo, yHi int) error {
		var wedge, prefix []T
		if size > 2 {
			wedge, prefix = make([]T, (w+size-1)*c), make([]T, c)
		}
		for y := yLo; y < yHi; y++ {
			row, out := src[y*rowLen:(y+1)*rowLen], tmp[y*rowLen:(y+1)*rowLen]
			if size > 2 {
				slideMin(out, row, c, w, size, lo, 0, w, wedge, prefix, rowMin)
				continue
			}
			// Pixel x's window is {x, x+1}; the last pixel's clamps to
			// itself, and the minimum of a sample with itself is the sample.
			n := rowLen - c
			rowMin(out[:n], row[:n], row[c:])
			copy(out[n:], row[n:])
		}
		return nil
	}, opts...)
	if err != nil {
		return err
	}

	// Vertical: each chunk owns a disjoint band of rows of dst and reads
	// tmp.
	return parallel.For(ctx, h, func(yLo, yHi int) error {
		if size > 2 {
			wedge := make([]T, (yHi-yLo+size-1)*rowLen)
			slideMin(dst, tmp, rowLen, h, size, lo, yLo, yHi, wedge, make([]T, rowLen), rowMin)
			return nil
		}
		for y := yLo; y < yHi; y++ {
			below := min(y+1, h-1)
			rowMin(dst[y*rowLen:(y+1)*rowLen], tmp[y*rowLen:(y+1)*rowLen], tmp[below*rowLen:(below+1)*rowLen])
		}
		return nil
	}, opts...)
}

// MinimumInto writes the size×size minimum of src into dst, which must
// already have src's geometry. It is the allocation-lean variant of
// MinimumCtx for callers that recycle output buffers (the detection
// pipeline), the one body behind Minimum and MinimumCtx, and the one
// place that picks the lane: a src whose samples are all 8-bit integers is
// narrowed once, eroded in place over that private uint8 view (one byte
// per sample instead of eight) and widened into dst; any other src is
// eroded over float64. Both lanes give bit-identical results. popts pin
// the worker count of both passes.
func MinimumInto(ctx context.Context, src, dst *imgcore.Image, size int, popts ...parallel.Option) error {
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
