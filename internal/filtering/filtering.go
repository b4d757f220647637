// Package filtering implements the spatial filters used by Decamouflage's
// filtering-detection method and by the prevention baselines: rank filters
// (minimum, maximum, median — the paper's Figure 4), box and Gaussian
// smoothing. All filters use replicate border handling, matching OpenCV's
// default BORDER_REPLICATE semantics for small kernels. The separable
// Gaussian in blur.go (GaussianKernel, BlurPlane) is the repository's only
// one: SSIM's window in internal/metrics and the CSP spectrum low-pass in
// internal/steg run on it too.
package filtering

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/parallel"
)

// ErrBadWindow indicates an invalid filter window size.
var ErrBadWindow = errors.New("filtering: window size must be a positive odd-or-even integer >= 2 for rank filters")

// Minimum applies a size×size minimum filter (grayscale erosion) to each
// channel independently: every output sample is the smallest sample in its
// window. The paper uses the 2×2 minimum filter to strip the embedded
// target pixels out of attack images. The implementation is the separable
// van Herk–Gil–Werman sweep in fast.go — O(1) comparisons per sample —
// whose output is bit-identical to the naive window scan for finite inputs.
func Minimum(img *imgcore.Image, size int) (*imgcore.Image, error) {
	return minMaxFilter(context.Background(), img, size, false)
}

// MinimumCtx is Minimum honouring ctx cancellation in its parallel sweeps,
// for callers (the detection pipeline) that thread a request context
// through every stage. Output is bit-identical to Minimum's.
func MinimumCtx(ctx context.Context, img *imgcore.Image, size int) (*imgcore.Image, error) {
	return minMaxFilter(ctx, img, size, false)
}

// Maximum applies a size×size maximum filter (grayscale dilation). Like
// Minimum, it runs the separable van Herk–Gil–Werman sweep.
func Maximum(img *imgcore.Image, size int) (*imgcore.Image, error) {
	return minMaxFilter(context.Background(), img, size, true)
}

// Median applies a size×size median filter via the per-row sliding sorted
// window in fast.go, bit-identical to the naive collect-and-select for
// finite inputs.
func Median(img *imgcore.Image, size int) (*imgcore.Image, error) {
	return medianFilter(context.Background(), img, size)
}

// Rank applies a size×size rank filter selecting the k-th smallest sample
// (k is zero-based) in each window.
func Rank(img *imgcore.Image, size, k int) (*imgcore.Image, error) {
	if k < 0 || k >= size*size {
		return nil, fmt.Errorf("filtering: rank %d out of range [0,%d)", k, size*size)
	}
	return rankFilter(context.Background(), img, size, func(buf []float64) float64 {
		sort.Float64s(buf)
		return buf[k]
	})
}

func pickMin(buf []float64) float64 {
	m := buf[0]
	for _, v := range buf[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func pickMax(buf []float64) float64 {
	m := buf[0]
	for _, v := range buf[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

func pickMedian(buf []float64) float64 {
	sort.Float64s(buf)
	n := len(buf)
	if n%2 == 1 {
		return buf[n/2]
	}
	return (buf[n/2-1] + buf[n/2]) / 2
}

// minFilterWork is the per-chunk grain (in window-weighted samples) below
// which a filter sweep stays on the calling goroutine.
const minFilterWork = 1 << 14

// rankFilter runs a generic sliding-window reduction — the naive O(size²)
// per-pixel reference the fast kernels in fast.go are pinned against, and
// the implementation behind the generic Rank. Window anchoring follows the
// OpenCV convention: for even sizes the anchor is the top-left sample of
// the window (offsets [0, size)), for odd sizes the window is centered
// (offsets [-size/2, size/2]). Rows are processed in parallel bands; pick
// must therefore be a pure function of its buffer. The window buffer is
// allocated once per band at its full size² length and refilled in place
// across every pixel of the band, so the sweep itself never reallocates.
func rankFilter(ctx context.Context, img *imgcore.Image, size int, pick func([]float64) float64, popts ...parallel.Option) (*imgcore.Image, error) {
	if err := img.Validate(); err != nil {
		return nil, err
	}
	if size < 2 {
		return nil, fmt.Errorf("%w: got %d", ErrBadWindow, size)
	}
	lo, hi := windowOffsets(size)

	out := img.Clone()
	rowCost := img.W * img.C * size * size
	opts := append([]parallel.Option{
		parallel.Grain(parallel.GrainForWidth(rowCost, minFilterWork)),
	}, popts...)
	err := parallel.For(ctx, img.H, func(yLo, yHi int) error {
		buf := make([]float64, size*size)
		for y := yLo; y < yHi; y++ {
			for x := 0; x < img.W; x++ {
				for c := 0; c < img.C; c++ {
					k := 0
					for dy := lo; dy <= hi; dy++ {
						for dx := lo; dx <= hi; dx++ {
							buf[k] = img.AtClamped(x+dx, y+dy, c)
							k++
						}
					}
					out.Set(x, y, c, pick(buf))
				}
			}
		}
		return nil
	}, opts...)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Box applies a size×size mean filter via the separable running-sum sweep
// in fast.go. Its summation order differs from the naive window scan, so
// outputs match the naive reference to tolerance rather than bit-exactly.
func Box(img *imgcore.Image, size int) (*imgcore.Image, error) {
	return boxFilter(context.Background(), img, size)
}

// box is the fast Box with parallel options threaded through for the
// serial-vs-parallel equivalence tests.
func box(ctx context.Context, img *imgcore.Image, size int, popts ...parallel.Option) (*imgcore.Image, error) {
	return boxFilter(ctx, img, size, popts...)
}

// Gaussian applies Gaussian smoothing with the given radius and sigma to
// each channel independently: every channel plane goes through BlurPlane
// with the GaussianKernel window.
func Gaussian(img *imgcore.Image, radius int, sigma float64) (*imgcore.Image, error) {
	if err := img.Validate(); err != nil {
		return nil, err
	}
	if radius < 1 || sigma <= 0 {
		return nil, fmt.Errorf("filtering: invalid gaussian radius %d sigma %v", radius, sigma)
	}
	kern := GaussianKernel(radius, sigma)
	out := &imgcore.Image{W: img.W, H: img.H, C: img.C, Pix: make([]float64, len(img.Pix))}
	n := img.W * img.H
	src, dst := make([]float64, n), make([]float64, n)
	for c := 0; c < img.C; c++ {
		for i := range src {
			src[i] = img.Pix[i*img.C+c]
		}
		if err := BlurPlane(context.Background(), dst, src, img.W, img.H, kern); err != nil {
			return nil, err
		}
		for i, v := range dst {
			out.Pix[i*img.C+c] = v
		}
	}
	return out, nil
}
