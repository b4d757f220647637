// Package filtering implements the spatial filters used by Decamouflage's
// filtering-detection method and by the prevention baselines: the minimum
// filter of the paper's Method 2 (one van Herk–Gil–Werman erosion kernel
// in fast.go, run over 8-bit planes when the samples allow and over
// float64 otherwise), the maximum and median filters it is compared
// against in Figure 4 (the naive window scan rankFilter), and Gaussian
// smoothing. All filters use replicate border
// handling, matching OpenCV's default BORDER_REPLICATE semantics for small
// kernels. The separable blur in blur.go (GaussianKernel, Blur and its
// one-plane case BlurPlane) is the repository's only one: it blurs k
// planes in one row pass and one column pass. SSIM's moments in
// internal/metrics (k = 2 and 3) and the CSP spectrum low-pass in
// internal/steg (BlurPlane) run on it too.
package filtering

import (
	"context"
	"errors"
	"fmt"
	"math"
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
	return MinimumCtx(context.Background(), img, size)
}

// MinimumCtx is Minimum honouring ctx cancellation in its parallel sweeps.
// Output is bit-identical to Minimum's.
func MinimumCtx(ctx context.Context, img *imgcore.Image, size int) (*imgcore.Image, error) {
	if err := img.Validate(); err != nil {
		return nil, err
	}
	out := &imgcore.Image{W: img.W, H: img.H, C: img.C, Pix: make([]float64, len(img.Pix))}
	if err := MinimumInto(ctx, img, out, size); err != nil {
		return nil, err
	}
	return out, nil
}

// Maximum applies a size×size maximum filter (grayscale dilation) with
// the naive window scan of rankFilter. The paper shows it only as a foil
// to the minimum filter (Figures 4/5).
func Maximum(img *imgcore.Image, size int) (*imgcore.Image, error) {
	return rankFilter(context.Background(), img, size, pickMax)
}

// Median applies a size×size median filter with the naive
// collect-and-select window scan of rankFilter: the middle sample for odd
// counts, the mean of the two middles for even. Like Maximum, it is a foil
// in the paper's Figures 4/5.
func Median(img *imgcore.Image, size int) (*imgcore.Image, error) {
	return rankFilter(context.Background(), img, size, pickMedian)
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
// per-pixel body behind Median and Maximum, and the reference the erosion
// kernel in fast.go is pinned against. Window anchoring follows the
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
	if err := checkWindow(size); err != nil {
		return nil, err
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

// Gaussian applies Gaussian smoothing with the given radius and sigma to
// each channel independently: every channel plane goes through BlurPlane
// with the GaussianKernel window.
func Gaussian(img *imgcore.Image, radius int, sigma float64) (*imgcore.Image, error) {
	if err := img.Validate(); err != nil {
		return nil, err
	}
	if math.IsNaN(sigma) || math.IsInf(sigma, 0) {
		return nil, fmt.Errorf("filtering: gaussian sigma %v is not finite", sigma)
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
