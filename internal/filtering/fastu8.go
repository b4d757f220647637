// Fixed-point minimum filter over the 8-bit image view. The float64
// kernel in fast.go remains the canonical implementation; the variant in
// this file runs the same van Herk–Gil–Werman algorithm over
// imgcore.U8Image — one byte per sample instead of eight — for the
// common case where every input intensity is an 8-bit integer.
// Comparisons on integers order identically to comparisons on their
// float64 images, so MinimumU8 is bit-exact against Minimum after FromU8
// (pinned by the u8 equivalence suite and the fixed-point fuzzer).
//
// Window anchoring and replicate-clamp borders match fast.go exactly.
package filtering

import (
	"context"
	"fmt"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/parallel"
)

// MinimumU8 applies a size×size minimum filter to an 8-bit image. The
// output equals Minimum over FromU8(u) bit-exactly.
func MinimumU8(u *imgcore.U8Image, size int) (*imgcore.U8Image, error) {
	return minFilterU8(context.Background(), u, size)
}

// MinimumU8Ctx is MinimumU8 honouring ctx cancellation in its parallel
// sweeps.
func MinimumU8Ctx(ctx context.Context, u *imgcore.U8Image, size int) (*imgcore.U8Image, error) {
	return minFilterU8(ctx, u, size)
}

// padClampedU8 is padClamped over uint8 lanes: dst[t] = src[clamp(t+lo)]
// at the given stride.
//
//declint:hot
func padClampedU8(dst, src []uint8, n, stride, lo int) {
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

// slidingMinU8 is slidingMin over uint8 lanes: one backward suffix-wedge
// pass and one forward prefix pass per block of w samples.
//
//declint:hot
func slidingMinU8(out, padded, wedge []uint8, w int) {
	p := len(padded)
	if w == 2 {
		for i := range out {
			if padded[i+1] < padded[i] {
				out[i] = padded[i+1]
			} else {
				out[i] = padded[i]
			}
		}
		return
	}
	for t := p - 1; t >= 0; t-- {
		if t == p-1 || (t+1)%w == 0 {
			wedge[t] = padded[t]
		} else if padded[t] < wedge[t+1] {
			wedge[t] = padded[t]
		} else {
			wedge[t] = wedge[t+1]
		}
	}
	var prefix uint8
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

// minFilterU8 mirrors minMaxFilter's minimum over the 8-bit view: a
// horizontal vHGW sweep into an intermediate image, then a vertical
// sweep, with per-band uint8 scratch.
func minFilterU8(ctx context.Context, u *imgcore.U8Image, size int, popts ...parallel.Option) (*imgcore.U8Image, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	if size < 2 {
		return nil, fmt.Errorf("%w: got %d", ErrBadWindow, size)
	}
	lo, _ := windowOffsets(size)
	tmp := u.Clone()
	out := u.Clone()

	rowCost := u.W * u.C
	hOpts := append([]parallel.Option{
		parallel.Grain(parallel.GrainForWidth(rowCost, minFilterWork)),
	}, popts...)
	err := parallel.For(ctx, u.H, func(yLo, yHi int) error {
		padded := make([]uint8, u.W+size-1)
		wedge := make([]uint8, len(padded))
		line := make([]uint8, u.W)
		for y := yLo; y < yHi; y++ {
			for c := 0; c < u.C; c++ {
				padClampedU8(padded, u.Pix[(y*u.W)*u.C+c:], u.W, u.C, lo)
				slidingMinU8(line, padded, wedge, size)
				for x := 0; x < u.W; x++ {
					tmp.Pix[(y*u.W+x)*u.C+c] = line[x]
				}
			}
		}
		return nil
	}, hOpts...)
	if err != nil {
		return nil, err
	}

	colCost := u.H * u.C
	vOpts := append([]parallel.Option{
		parallel.Grain(parallel.GrainForWidth(colCost, minFilterWork)),
	}, popts...)
	err = parallel.For(ctx, u.W, func(xLo, xHi int) error {
		padded := make([]uint8, u.H+size-1)
		wedge := make([]uint8, len(padded))
		line := make([]uint8, u.H)
		for x := xLo; x < xHi; x++ {
			for c := 0; c < u.C; c++ {
				padClampedU8(padded, tmp.Pix[x*u.C+c:], u.H, u.W*u.C, lo)
				slidingMinU8(line, padded, wedge, size)
				for y := 0; y < u.H; y++ {
					out.Pix[(y*u.W+x)*u.C+c] = line[y]
				}
			}
		}
		return nil
	}, vOpts...)
	if err != nil {
		return nil, err
	}
	return out, nil
}
