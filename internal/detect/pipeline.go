// The stage-DAG pipeline engine: the one implementation of every
// built-in detection method. A pass over one image is a small DAG of
// typed stages:
//
//	input tensor ──┬─▶ grayscale ──▶ 2-D spectrum ──▶ CSP count
//	               │       └───────▶ SSIM reference
//	               ├─▶ downscale ──▶ upscale round trip ──▶ metric score
//	               └─▶ min-filter ─────────────────────────▶ metric score
//
// Every image gets one Intermediates table whose entries are memoized by
// stage identity (stageKey), so each substrate is computed exactly once
// per image no matter how many scorers request it, and derived scores
// (PSNR from a memoized MSE, every SSIM from one prepared reference)
// reuse the heavy work. Resize coefficients and FFT plans are shared
// across images through the global scaling.CoeffFor and fourier.PlanFor
// caches, and pooled pixel buffers flow through the request instead of
// being allocated per stage.
//
// An ensemble opens one table per image for all of its members; a
// standalone Scorer.Score or Detector.Detect opens a one-member table.
// Calibration, evaluation and serving therefore run the same stage code,
// and a threshold calibrated on standalone scores is applied to
// bit-identical ensemble scores (pinned, together with the
// kernel-composed reference in pipeline_diff_test.go, by the
// differential suite). Every stage runs on the float64 tensor; the one
// stage that gains from 8-bit samples, the min-filter, gets them inside
// filtering.MinimumInto.
package detect

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"decamouflage/internal/filtering"
	"decamouflage/internal/fourier"
	"decamouflage/internal/imgcore"
	"decamouflage/internal/metrics"
	"decamouflage/internal/obs"
	"decamouflage/internal/parallel"
	"decamouflage/internal/scaling"
	"decamouflage/internal/steg"
)

// pipelineScorer is a Scorer that scores through a per-image
// Intermediates table, sharing memoized substrates with the other members
// of an ensemble. The built-in scorers implement it; third-party scorers
// fall back to Score on the un-shared input image.
type pipelineScorer interface {
	Scorer
	// ScorePipeline computes the raw metric value for the image behind in,
	// requesting every expensive substrate from in's memo table.
	ScorePipeline(ctx context.Context, in *Intermediates) (float64, error)
}

// Interface compliance.
var (
	_ pipelineScorer = (*ScalingScorer)(nil)
	_ pipelineScorer = (*FilteringScorer)(nil)
	_ pipelineScorer = (*StegScorer)(nil)
)

// stageKind enumerates the typed stages of the detection DAG.
type stageKind uint8

const (
	stageGray stageKind = iota + 1
	stageRoundTrip
	stageMinFilter
	stageSpectrum
	stageCSP
	stageSSIMRef
	stageMSE
)

// stageKey is the identity of one stage instance for one image: the stage
// kind plus every parameter that changes its output. Two scorers whose
// keys are equal provably need the same bytes, so they share one memo
// entry.
type stageKey struct {
	kind stageKind
	// of is the substrate kind a derived stage (stageMSE) consumes.
	of stageKind
	// dstW/dstH/sopts identify a round trip's downscale geometry.
	dstW, dstH int
	sopts      scaling.Options
	// window identifies a minimum-filter stage.
	window int
	// gopts identifies a CSP stage (resolved, so zero-valued and
	// explicitly-defaulted options share an entry).
	gopts steg.Options
}

// memoEntry is a once-computed stage result.
type memoEntry struct {
	once sync.Once
	val  any
	err  error
}

// The stage engine's cross-image instruments: the memo hit/miss counters
// and the per-stage latency histograms. Every ensemble and every
// standalone score records into the same obs registry entries.
var (
	memoStats = obs.NewMemoStats("detect.pipeline.memo")

	grayH   = obs.H("detect.pipeline.gray.seconds")
	downH   = obs.H("detect.pipeline.downscale.seconds")
	upH     = obs.H("detect.pipeline.upscale.seconds")
	minH    = obs.H("detect.pipeline.minfilter.seconds")
	specH   = obs.H("detect.pipeline.spectrum.seconds")
	cspH    = obs.H("detect.pipeline.csp.seconds")
	metricH = obs.H("detect.pipeline.metric.seconds")
)

// scoreAlone scores one image through a one-member table: validate, open
// the table, score, release.
func scoreAlone(ctx context.Context, s pipelineScorer, img *imgcore.Image) (float64, error) {
	if err := img.Validate(); err != nil {
		return 0, err
	}
	in := intermediates(img)
	defer in.release()
	return s.ScorePipeline(ctx, in)
}

// intermediates opens a fresh per-image memo table over img. popts reach
// every stage kernel the table runs (the resize, the erosion, the
// spectrum FFT and the SSIM blur), so a caller that already fans out over
// images can pin each image's kernels to one worker.
func intermediates(img *imgcore.Image, popts ...parallel.Option) *Intermediates {
	return &Intermediates{img: img, popts: popts, entries: make(map[stageKey]*memoEntry)}
}

// Intermediates is the per-image memo table of the stage DAG. Scorers
// request substrates from it; the first request computes, every later
// request — from any goroutine — reuses the result. release returns the
// pooled buffers behind the memoized values, so the table and everything
// it handed out must not be used afterwards.
type Intermediates struct {
	img *imgcore.Image
	// popts are the parallel options of every stage kernel call.
	popts []parallel.Option

	mu      sync.Mutex
	entries map[stageKey]*memoEntry

	// hits/misses mirror the memoStats obs counters but always count, so
	// tests can pin exactly-once computation under -tags noobs too.
	// borrows counts pooled buffers handed to this request (one per
	// registered release), the pool-custody figure the flight recorder
	// reports per image.
	hits, misses, borrows atomic.Int64

	relMu    sync.Mutex
	released []func()
}

// memo returns the stage value for key, computing it at most once.
func (in *Intermediates) memo(key stageKey, compute func() (any, error)) (any, error) {
	in.mu.Lock()
	e, ok := in.entries[key]
	if !ok {
		e = &memoEntry{}
		in.entries[key] = e
	}
	in.mu.Unlock()
	first := false
	e.once.Do(func() {
		first = true
		e.val, e.err = compute()
	})
	if first {
		in.misses.Add(1)
		memoStats.Miss()
	} else {
		in.hits.Add(1)
		memoStats.Hit()
	}
	return e.val, e.err
}

// deferRelease registers a cleanup to run when the request finishes.
//
//declint:transfers
func (in *Intermediates) deferRelease(f func()) {
	in.borrows.Add(1)
	in.relMu.Lock()
	in.released = append(in.released, poolTraceWrap(f))
	in.relMu.Unlock()
}

// release returns every pooled buffer the table handed out. Safe to call
// after parallel.Do/For over the scorers returned: the parallel substrate
// waits for in-flight tasks even on error or cancellation.
func (in *Intermediates) release() {
	in.relMu.Lock()
	fs := in.released
	in.released = nil
	in.relMu.Unlock()
	for _, f := range fs {
		f()
	}
}

// pixPool recycles the pixel planes of pooled stage outputs. Buffers are
// not zeroed on reuse: every stage fully overwrites its output (GrayInto
// writes every sample; ResizeInto's passes and MinimumInto's vertical
// sweep or widening assign every sample).
var pixPool = sync.Pool{New: func() any { return new([]float64) }}

// pooledImage draws an image of the given geometry from the pixel pool.
// The caller must hand the returned put func to deferRelease (or call it)
// exactly once.
//
//declint:owns result 1
func pooledImage(w, h, c int) (img *imgcore.Image, put func()) {
	n := w * h * c
	bp := pixPool.Get().(*[]float64)
	b := *bp
	if cap(b) < n {
		b = make([]float64, n)
	}
	*bp = b[:n]
	return &imgcore.Image{W: w, H: h, C: c, Pix: *bp}, poolTraceWrap(func() { pixPool.Put(bp) })
}

// gray returns the single-channel luminance view of the image: the image
// itself when it is already single-channel, otherwise a pooled BT.601
// conversion computed once per image.
func (in *Intermediates) gray(ctx context.Context) (*imgcore.Image, error) {
	v, err := in.memo(stageKey{kind: stageGray}, func() (any, error) {
		if in.img.C == 1 {
			return in.img, nil
		}
		if in.img.C != 3 {
			return nil, fmt.Errorf("detect: cannot gray %d-channel image", in.img.C)
		}
		_, st := obs.StartStage(ctx, "pipeline.gray", grayH)
		g, put := pooledImage(in.img.W, in.img.H, 1)
		in.deferRelease(put)
		imgcore.GrayInto(g.Pix, in.img.Pix)
		st.End()
		return g, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*imgcore.Image), nil
}

// roundTrip returns the Method-1 reconstruction for one downscale
// geometry: img downscaled to (key.dstW × key.dstH) and upscaled back to
// its own size, computed once per (geometry, options).
func (in *Intermediates) roundTrip(ctx context.Context, key stageKey) (*imgcore.Image, error) {
	v, err := in.memo(key, func() (any, error) {
		img := in.img
		downScaler, err := scaling.NewScaler(img.W, img.H, key.dstW, key.dstH, key.sopts)
		if err != nil {
			return nil, fmt.Errorf("detect: scaling downscale: %w", err)
		}
		upScaler, err := scaling.NewScaler(key.dstW, key.dstH, img.W, img.H, key.sopts)
		if err != nil {
			return nil, fmt.Errorf("detect: scaling upscale: %w", err)
		}
		_, st := obs.StartStage(ctx, "pipeline.downscale", downH)
		down, putDown := pooledImage(key.dstW, key.dstH, img.C)
		err = downScaler.ResizeInto(ctx, img, down, in.popts...)
		st.End()
		if err != nil {
			putDown()
			return nil, fmt.Errorf("detect: scaling downscale: %w", err)
		}
		_, st = obs.StartStage(ctx, "pipeline.upscale", upH)
		up, putUp := pooledImage(img.W, img.H, img.C)
		err = upScaler.ResizeInto(ctx, down, up, in.popts...)
		st.End()
		putDown()
		if err != nil {
			putUp()
			return nil, fmt.Errorf("detect: scaling upscale: %w", err)
		}
		in.deferRelease(putUp)
		return up, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*imgcore.Image), nil
}

// minFiltered returns the Method-2 erosion of the image for one window
// size, computed once per window into a pooled buffer.
func (in *Intermediates) minFiltered(ctx context.Context, window int) (*imgcore.Image, error) {
	v, err := in.memo(stageKey{kind: stageMinFilter, window: window}, func() (any, error) {
		_, st := obs.StartStage(ctx, "pipeline.minfilter", minH)
		f, put := pooledImage(in.img.W, in.img.H, in.img.C)
		err := filtering.MinimumInto(ctx, in.img, f, window, in.popts...)
		st.End()
		if err != nil {
			put()
			return nil, fmt.Errorf("detect: minimum filter: %w", err)
		}
		in.deferRelease(put)
		return f, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*imgcore.Image), nil
}

// spectrum returns the centered log-magnitude spectrum of the luminance
// plane, computed once per image through the cached FFT plans.
func (in *Intermediates) spectrum(ctx context.Context) ([]float64, error) {
	v, err := in.memo(stageKey{kind: stageSpectrum}, func() (any, error) {
		g, err := in.gray(ctx)
		if err != nil {
			return nil, err
		}
		plan, err := fourier.Plan2DFor(g.W, g.H)
		if err != nil {
			return nil, fmt.Errorf("steg: spectrum: %w", err)
		}
		_, st := obs.StartStage(ctx, "pipeline.spectrum", specH)
		spec := make([]float64, g.W*g.H)
		err = plan.CenteredSpectrumInto(ctx, g.Pix, spec, in.popts...)
		st.End()
		if err != nil {
			return nil, fmt.Errorf("steg: spectrum: %w", err)
		}
		return spec, nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]float64), nil
}

// csp returns the Method-3 centered-spectrum-point count under opts,
// computed once per resolved option set on the shared spectrum.
func (in *Intermediates) csp(ctx context.Context, opts steg.Options) (int, error) {
	key := stageKey{kind: stageCSP, gopts: opts.Resolved(in.img.W, in.img.H)}
	v, err := in.memo(key, func() (any, error) {
		spec, err := in.spectrum(ctx)
		if err != nil {
			return nil, err
		}
		_, st := obs.StartStage(ctx, "pipeline.csp", cspH)
		a, err := steg.AnalyzeSpectrumCtx(ctx, spec, in.img.W, in.img.H, key.gopts)
		st.End()
		if err != nil {
			return nil, err
		}
		return a.Count, nil
	})
	if err != nil {
		return 0, err
	}
	return v.(int), nil
}

// ssimRef returns the prepared SSIM reference of the image's luminance
// plane, built once per image and scored against every method's
// reconstruction.
func (in *Intermediates) ssimRef(ctx context.Context) (*metrics.SSIMRef, error) {
	v, err := in.memo(stageKey{kind: stageSSIMRef}, func() (any, error) {
		g, err := in.gray(ctx)
		if err != nil {
			return nil, err
		}
		_, st := obs.StartStage(ctx, "pipeline.metric", metricH)
		ref, err := metrics.NewSSIMRef(ctx, g, metrics.DefaultSSIM(), in.popts...)
		st.End()
		if err != nil {
			return nil, err
		}
		in.deferRelease(ref.Release)
		return ref, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*metrics.SSIMRef), nil
}

// mseAgainst returns the MSE between the image and the substrate behind
// sub, computed once per substrate and shared by the MSE and PSNR scores.
func (in *Intermediates) mseAgainst(ctx context.Context, sub stageKey, other *imgcore.Image) (float64, error) {
	key := stageKey{kind: stageMSE, of: sub.kind, dstW: sub.dstW, dstH: sub.dstH, sopts: sub.sopts, window: sub.window}
	v, err := in.memo(key, func() (any, error) {
		_, st := obs.StartStage(ctx, "pipeline.metric", metricH)
		m, err := metrics.MSE(in.img, other)
		st.End()
		if err != nil {
			return nil, err
		}
		return m, nil
	})
	if err != nil {
		return 0, err
	}
	return v.(float64), nil
}

// scoreAgainst scores the image against one reconstructed substrate with
// the given metric, sharing the MSE between MSE and PSNR and the prepared
// reference between every SSIM score.
func (in *Intermediates) scoreAgainst(ctx context.Context, m Metric, sub stageKey, other *imgcore.Image) (float64, error) {
	switch m {
	case MSE:
		return in.mseAgainst(ctx, sub, other)
	case PSNR:
		mse, err := in.mseAgainst(ctx, sub, other)
		if err != nil {
			return 0, err
		}
		return metrics.PSNRFromMSE(mse), nil
	case SSIM:
		ref, err := in.ssimRef(ctx)
		if err != nil {
			return 0, err
		}
		_, st := obs.StartStage(ctx, "pipeline.metric", metricH)
		v, err := ref.ScoreCtx(ctx, other, in.popts...)
		st.End()
		return v, err
	default:
		return 0, fmt.Errorf("detect: unsupported metric %v", m)
	}
}

// ScorePipeline implements pipelineScorer: the round trip is a memoized
// substrate shared by every scaling scorer of the same geometry, and the
// score derives from the shared MSE/SSIM machinery.
func (s *ScalingScorer) ScorePipeline(ctx context.Context, in *Intermediates) (float64, error) {
	up, err := in.roundTrip(ctx, s.trip)
	if err != nil {
		return 0, err
	}
	return in.scoreAgainst(ctx, s.metric, s.trip, up)
}

// ScorePipeline implements pipelineScorer: the erosion is a memoized
// substrate shared by every filtering scorer of the same window.
func (s *FilteringScorer) ScorePipeline(ctx context.Context, in *Intermediates) (float64, error) {
	key := stageKey{kind: stageMinFilter, window: s.window}
	f, err := in.minFiltered(ctx, s.window)
	if err != nil {
		return 0, err
	}
	return in.scoreAgainst(ctx, s.metric, key, f)
}

// ScorePipeline implements pipelineScorer: the spectrum is computed once
// per image and the component count once per resolved option set.
func (s *StegScorer) ScorePipeline(ctx context.Context, in *Intermediates) (float64, error) {
	n, err := in.csp(ctx, s.opts)
	if err != nil {
		return 0, fmt.Errorf("detect: csp: %w", err)
	}
	return float64(n), nil
}
