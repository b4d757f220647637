// Package metrics implements the image-similarity measures Decamouflage's
// detectors score with: mean squared error (MSE), the structural similarity
// index (SSIM, Wang et al. 2004, Gaussian-window form), and peak
// signal-to-noise ratio (PSNR, kept for the paper's Appendix-A negative
// result).
package metrics

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"decamouflage/internal/imgcore"
)

// ErrShapeMismatch indicates two images of different geometry.
var ErrShapeMismatch = errors.New("metrics: images must have identical shape")

func checkPair(a, b *imgcore.Image) error {
	if err := a.Validate(); err != nil {
		return err
	}
	if err := b.Validate(); err != nil {
		return err
	}
	if !a.SameShape(b) {
		return fmt.Errorf("%w: %v vs %v", ErrShapeMismatch, a, b)
	}
	return nil
}

// MSE returns the mean squared error between a and b over all samples
// (Eq. 5 in the paper).
func MSE(a, b *imgcore.Image) (float64, error) {
	if err := checkPair(a, b); err != nil {
		return 0, err
	}
	var s float64
	for i := range a.Pix {
		d := a.Pix[i] - b.Pix[i]
		s += d * d
	}
	return s / float64(len(a.Pix)), nil
}

// PSNR returns the peak signal-to-noise ratio in decibels with L = 256
// intensity levels (Eq. 9 in the paper). Identical images yield +Inf.
func PSNR(a, b *imgcore.Image) (float64, error) {
	mse, err := MSE(a, b)
	if err != nil {
		return 0, err
	}
	return PSNRFromMSE(mse), nil
}

// PSNRFromMSE converts an already-computed mean squared error into the PSNR
// score, bit-identical to PSNR's own conversion. The detection pipeline
// uses it to derive the PSNR score from a memoized MSE without touching the
// pixels again.
func PSNRFromMSE(mse float64) float64 {
	//declint:ignore floateq exact-zero MSE is the documented identical-images +Inf case
	if mse == 0 {
		return math.Inf(1)
	}
	const peak = 255.0
	return 10 * math.Log10(peak*peak/mse)
}

// SSIMOptions configures the structural similarity computation.
type SSIMOptions struct {
	// WindowRadius is the Gaussian window radius; the window is
	// (2r+1)x(2r+1). The standard configuration is r=5 (11x11).
	WindowRadius int
	// Sigma is the Gaussian window standard deviation (standard: 1.5).
	Sigma float64
	// K1, K2 are the stabilization constants (standard: 0.01, 0.03).
	K1, K2 float64
	// L is the dynamic range of pixel values (255 for 8-bit).
	L float64
}

// DefaultSSIM returns the canonical SSIM parameters from Wang et al.
func DefaultSSIM() SSIMOptions {
	return SSIMOptions{WindowRadius: 5, Sigma: 1.5, K1: 0.01, K2: 0.03, L: 255}
}

func (o SSIMOptions) validate() error {
	if o.WindowRadius < 1 {
		return fmt.Errorf("metrics: window radius %d < 1", o.WindowRadius)
	}
	if o.Sigma <= 0 {
		return fmt.Errorf("metrics: sigma %v <= 0", o.Sigma)
	}
	if o.L <= 0 {
		return fmt.Errorf("metrics: dynamic range %v <= 0", o.L)
	}
	return nil
}

// SSIM returns the mean structural similarity index between a and b using
// the default parameters. Color images are scored on their luminance, the
// standard convention.
func SSIM(a, b *imgcore.Image) (float64, error) {
	return SSIMWith(a, b, DefaultSSIM())
}

// SSIMWith returns the mean SSIM index with explicit parameters.
//
// The implementation follows the reference algorithm: per-pixel local
// means, variances and covariance computed with a separable Gaussian
// window, combined via
//
//	SSIM = ((2·μaμb + c1)(2·σab + c2)) / ((μa² + μb² + c1)(σa² + σb² + c2))
//
// and averaged over all pixel positions. It prepares a as an SSIMRef and
// scores b against it, so a one-off comparison and a shared reference run
// the same code.
func SSIMWith(a, b *imgcore.Image, opts SSIMOptions) (float64, error) {
	if err := checkPair(a, b); err != nil {
		return 0, err
	}
	ref, err := NewSSIMRef(context.Background(), a, opts)
	if err != nil {
		return 0, err
	}
	defer ref.Release()
	return ref.Score(b)
}

// grayPix returns the luminance samples of img (imgcore.GrayInto, the
// expression behind imgcore's Gray). Single-channel inputs are returned as a
// read-only view of img.Pix with a nil pool pointer; multi-channel inputs
// are converted into a pooled buffer the caller must release with
// putScratch.
//
//declint:owns result 1
func grayPix(img *imgcore.Image) ([]float64, *[]float64) {
	if img.C == 1 {
		return img.Pix, nil
	}
	bp := getScratch(img.W * img.H)
	imgcore.GrayInto(*bp, img.Pix)
	return *bp, bp
}

// scratchPool recycles the float64 working planes of SSIMRef. Buffers are
// not zeroed on reuse: every consumer fully overwrites its buffer before
// reading it.
var scratchPool = sync.Pool{New: func() any { return &[]float64{} }}

// getScratch borrows an n-sample buffer from the scratch pool.
//
//declint:owns
func getScratch(n int) *[]float64 {
	bp := scratchPool.Get().(*[]float64)
	b := *bp
	if cap(b) < n {
		b = make([]float64, n)
	}
	*bp = b[:n]
	return bp
}

// putScratch returns a getScratch buffer to the pool.
//
//declint:transfers
func putScratch(bp *[]float64) { scratchPool.Put(bp) }

// minMapWork is the per-chunk grain (in samples) below which a per-pixel
// product map stays on the calling goroutine.
const minMapWork = 1 << 14
