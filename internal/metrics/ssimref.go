package metrics

import (
	"context"
	"fmt"

	"decamouflage/internal/filtering"
	"decamouflage/internal/imgcore"
	"decamouflage/internal/parallel"
)

// SSIMRef is a prepared SSIM reference: the luminance plane, local means
// and local second moments of one image, precomputed so the image can be
// scored against many comparands without re-deriving its side of the
// computation. The detection pipeline builds one SSIMRef per input image
// and scores every method's reconstruction against it.
//
// SSIMWith(a, b, opts) is NewSSIMRef(a) → Score(b) → Release, so a shared
// reference and a one-off comparison give bit-identical scores. Each side
// computes its Gaussian moments in one filtering.Blur: the reference
// blurs a and a² together, and a score blurs b, b² and a·b together and
// turns each finished row into per-pixel SSIM terms. Blur's output does
// not depend on the worker count, and the terms are summed serially in
// index order, so scores are also bit-identical for every worker count.
//
// A reference is safe for concurrent ScoreCtx calls (they only read the
// shared buffers). Release returns the buffers to the scratch pool; the
// reference must not be used afterwards.
type SSIMRef struct {
	opts SSIMOptions
	w, h int
	kern []float64
	ga   []float64 // luminance plane of the reference
	muA  []float64 // Gaussian local means of ga
	sAA  []float64 // Gaussian local means of ga²
	pins []*[]float64
}

// NewSSIMRef precomputes the reference side of an SSIM comparison against a.
//
//declint:owns
func NewSSIMRef(ctx context.Context, a *imgcore.Image, opts SSIMOptions, popts ...parallel.Option) (*SSIMRef, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	w, h := a.W, a.H
	n := w * h
	r := &SSIMRef{opts: opts, w: w, h: h, kern: filtering.GaussianKernel(opts.WindowRadius, opts.Sigma)}
	// Own a copy of the luminance plane: grayPix may return a view of a.Pix,
	// and the reference must stay valid if the caller mutates or recycles a.
	gaPix, gaP := grayPix(a)
	gap := getScratch(n)
	copy(*gap, gaPix)
	if gaP != nil {
		putScratch(gaP)
	}
	r.pins = append(r.pins, gap)
	r.ga = *gap

	muAp, sAAp := getScratch(n), getScratch(n)
	r.pins = append(r.pins, muAp, sAAp)
	r.muA, r.sAA = *muAp, *sAAp
	muA, sAA := r.muA, r.sAA
	in := []filtering.BlurInput{{X: r.ga}, {X: r.ga, Y: r.ga}}
	if err := filtering.Blur(ctx, in, w, h, r.kern, func(y int, rows []float64) {
		copy(muA[y*w:(y+1)*w], rows[:w])
		copy(sAA[y*w:(y+1)*w], rows[w:])
	}, popts...); err != nil {
		r.Release()
		return nil, err
	}
	return r, nil
}

// Size returns the reference geometry.
func (r *SSIMRef) Size() (w, h int) { return r.w, r.h }

// Score is ScoreCtx without cancellation.
func (r *SSIMRef) Score(b *imgcore.Image) (float64, error) {
	return r.ScoreCtx(context.Background(), b)
}

// ScoreCtx returns the mean SSIM index between the reference image and b.
// Unlike SSIMWith, only the W×H geometry must match: both sides are scored
// on their luminance planes, so a reference built from a single-channel
// image can score multi-channel comparands of the same geometry (the pipeline scores RGB round-trips
// against the shared grayscale plane this way).
func (r *SSIMRef) ScoreCtx(ctx context.Context, b *imgcore.Image, popts ...parallel.Option) (float64, error) {
	if err := b.Validate(); err != nil {
		return 0, err
	}
	if b.W != r.w || b.H != r.h {
		return 0, fmt.Errorf("%w: ref %dx%d vs %v", ErrShapeMismatch, r.w, r.h, b)
	}
	w, h, n := r.w, r.h, r.w*r.h
	gbPix, gbP := grayPix(b)
	if gbP != nil {
		defer putScratch(gbP)
	}
	// The column pass folds each finished row of muB, sBB and sAB into its
	// SSIM terms, so those moments never exist as planes. The terms are
	// summed serially in index order afterwards, keeping the mean
	// independent of the band split.
	termp := getScratch(n)
	defer putScratch(termp)
	term := *termp
	c1 := (r.opts.K1 * r.opts.L) * (r.opts.K1 * r.opts.L)
	c2 := (r.opts.K2 * r.opts.L) * (r.opts.K2 * r.opts.L)
	muA, sAA := r.muA, r.sAA
	in := []filtering.BlurInput{{X: gbPix}, {X: gbPix, Y: gbPix}, {X: r.ga, Y: gbPix}}
	if err := filtering.Blur(ctx, in, w, h, r.kern, func(y int, rows []float64) {
		off := y * w
		muB, sBB, sAB := rows[:w], rows[w:2*w], rows[2*w:3*w]
		mA, sA, t := muA[off:off+w], sAA[off:off+w], term[off:off+w]
		for x, mb := range muB {
			ma := mA[x]
			varA := sA[x] - ma*ma
			varB := sBB[x] - mb*mb
			cov := sAB[x] - ma*mb
			num := (2*ma*mb + c1) * (2*cov + c2)
			den := (ma*ma + mb*mb + c1) * (varA + varB + c2)
			t[x] = num / den
		}
	}, popts...); err != nil {
		return 0, err
	}
	var sum float64
	for _, t := range term {
		sum += t
	}
	return sum / float64(n), nil
}

// Release returns the reference's pooled buffers to the scratch pool. The
// reference must not be scored against after Release; calling Release more
// than once is a no-op.
//
//declint:transfers receiver
func (r *SSIMRef) Release() {
	for _, p := range r.pins {
		putScratch(p)
	}
	r.pins = nil
	r.ga, r.muA, r.sAA = nil, nil, nil
}
