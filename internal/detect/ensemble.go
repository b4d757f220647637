package detect

import (
	"context"
	"errors"
	"fmt"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/obs"
	"decamouflage/internal/parallel"
)

// EnsembleVerdict is the combined decision of several detectors.
type EnsembleVerdict struct {
	// Attack is the majority-vote decision.
	Attack bool
	// Votes counts how many methods voted attack.
	Votes int
	// Verdicts holds the individual method decisions, in detector order.
	Verdicts []Verdict
}

// Ensemble majority-votes several detectors, running them concurrently —
// the deployable Decamouflage system of the paper's Figure 8 ("runs the
// three methods yielding the decision individually in parallel, then
// performs majority voting").
type Ensemble struct {
	detectors []*Detector

	// Whole-ensemble latency and majority-vote tallies, resolved at
	// construction (detect.ensemble.*), plus the batch equivalents.
	detectH     *obs.Histogram
	images      *obs.Counter
	attackC     *obs.Counter
	benignC     *obs.Counter
	batchH      *obs.Histogram
	batchImages *obs.Counter
}

// NewEnsemble builds an ensemble. At least one detector is required; an odd
// count avoids ties (ties break toward benign).
func NewEnsemble(detectors ...*Detector) (*Ensemble, error) {
	if len(detectors) == 0 {
		return nil, errors.New("detect: ensemble needs at least one detector")
	}
	for i, d := range detectors {
		if d == nil {
			return nil, fmt.Errorf("detect: ensemble detector %d is nil", i)
		}
	}
	return &Ensemble{
		detectors:   append([]*Detector(nil), detectors...),
		detectH:     obs.H("detect.ensemble.seconds"),
		images:      obs.C("detect.ensemble.images"),
		attackC:     obs.C("detect.ensemble.attack"),
		benignC:     obs.C("detect.ensemble.benign"),
		batchH:      obs.H("detect.batch.seconds"),
		batchImages: obs.C("detect.batch.images"),
	}, nil
}

// Detectors returns the ensemble members.
func (e *Ensemble) Detectors() []*Detector {
	return append([]*Detector(nil), e.detectors...)
}

// Detect runs every member concurrently (via parallel.Do, one task per
// method, bounded by GOMAXPROCS) and majority-votes. The members score
// through the stage-DAG pipeline: each expensive substrate (gray plane,
// round trip, erosion, spectrum) is computed exactly once per image and
// shared, with scores bit-identical to each member's standalone Score.
// It honours ctx cancellation between and during method launches; the
// first scoring error — by detector order — aborts the ensemble.
//
// Observability: the whole call is one stage ("ensemble.detect", latency
// in detect.ensemble.seconds) with each method's span nested under it —
// pipeline stage spans nest under the method that computed them — and the
// vote outcome recorded on the detect.ensemble.attack/benign counters.
func (e *Ensemble) Detect(ctx context.Context, img *imgcore.Image) (*EnsembleVerdict, error) {
	return e.detect(ctx, img)
}

// detect is Detect with parallel options threaded through to the member
// fan-out and to every stage kernel of the image's table (the
// differential suite pins Workers(1) vs Workers(N) equivalence; the batch
// path runs each image on one worker).
func (e *Ensemble) detect(ctx context.Context, img *imgcore.Image, popts ...parallel.Option) (*EnsembleVerdict, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := img.Validate(); err != nil {
		return nil, err
	}
	// Flight recorder: when one is installed, every image is traced so the
	// wide event attributes per-stage latency from the span tree. Callers
	// that already traced the context keep their trace (and own its End
	// and Release).
	rec := obs.Events()
	var tr *obs.Trace
	if rec.Active() && obs.TraceID(ctx) == "" {
		ctx, tr = obs.WithTrace(ctx, "ensemble.detect")
	}
	sctx, st := obs.StartStage(ctx, "ensemble.detect", e.detectH)
	in := intermediates(img, popts...)
	// parallel.Do waits for in-flight tasks even on error/cancellation, so
	// no task can still be reading the pooled substrates when they return
	// to their pools.
	defer in.release()
	verdicts := make([]Verdict, len(e.detectors))
	tasks := make([]func() error, len(e.detectors))
	for i, d := range e.detectors {
		tasks[i] = func() error {
			v, err := d.detectIn(sctx, in)
			if err != nil {
				return fmt.Errorf("%s: %w", d.Name(), err)
			}
			verdicts[i] = v
			return nil
		}
	}
	err := parallel.Do(ctx, tasks, popts...)
	var out *EnsembleVerdict
	if err == nil {
		out = e.tally(st, verdicts)
	}
	// End the stage before building the event so the span durations the
	// event serializes are final. This function has a single exit, so End
	// runs on every path without a defer (which would double-observe).
	st.End()
	if rec.Active() {
		rec.Record(e.detectEvent(sctx, st.Span(), img, in, out, err))
	}
	// The event holds the flattened copy of the trace this call opened, so
	// its span arena goes back to the pool here. A nil tr is a no-op.
	tr.Release()
	return out, err
}

// tally majority-votes the member verdicts, annotates the ensemble stage
// span and records the outcome counters.
func (e *Ensemble) tally(st obs.Stage, verdicts []Verdict) *EnsembleVerdict {
	votes := 0
	for _, v := range verdicts {
		if v.Attack {
			votes++
		}
	}
	out := &EnsembleVerdict{
		Attack:   votes*2 > len(verdicts),
		Votes:    votes,
		Verdicts: verdicts,
	}
	sp := st.Span()
	sp.AttrInt("votes", int64(votes))
	sp.AttrBool("attack", out.Attack)
	e.images.Inc()
	if out.Attack {
		e.attackC.Inc()
	} else {
		e.benignC.Inc()
	}
	return out
}

// DetectBatch runs the ensemble over many images concurrently (bounded by
// GOMAXPROCS via the shared parallel substrate) and returns one verdict
// per image, in order. Images fan out across workers, and each image runs
// on its worker alone: parallel.Workers(1) reaches the member fan-out and,
// through the image's Intermediates table, every stage kernel (the
// resize, the erosion, the spectrum FFT and the SSIM blur), so no kernel
// fans out again inside the image fan-out. Verdicts are bit-identical to
// Detect's. All images share the pipeline's scaler and FFT-plan caches.
// It stops at the first error or context cancellation. An empty batch
// returns an empty, non-nil verdict slice.
func (e *Ensemble) DetectBatch(ctx context.Context, imgs []*imgcore.Image) ([]*EnsembleVerdict, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	bctx, st := obs.StartStage(ctx, "detect.batch", e.batchH)
	defer st.End()
	e.batchImages.Add(int64(len(imgs)))
	out := make([]*EnsembleVerdict, len(imgs))
	err := parallel.For(bctx, len(imgs), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			v, err := e.detect(bctx, imgs[i], parallel.Workers(1))
			if err != nil {
				return fmt.Errorf("detect: image %d: %w", i, err)
			}
			out[i] = v
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
