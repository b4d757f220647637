// Package detect is the core of Decamouflage: the three image-scaling
// attack detection methods of the paper (scaling, filtering, steganalysis),
// their score metrics (MSE, SSIM, PSNR, CSP), threshold handling, white-box
// and black-box calibration, and the majority-voting ensemble.
package detect

import (
	"context"
	"errors"
	"fmt"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/obs"
	"decamouflage/internal/scaling"
	"decamouflage/internal/steg"
)

// Metric identifies a score function used by the spatial-domain methods.
type Metric int

// Supported metrics.
const (
	// MSE: mean squared error between the input and its transform
	// (attack images score high).
	MSE Metric = iota + 1
	// SSIM: structural similarity (attack images score low).
	SSIM
	// PSNR: peak signal-to-noise ratio; included to reproduce the paper's
	// Appendix-A negative result (not recommended for detection).
	PSNR
	// CSP: centered spectrum points (attack images score >= 2).
	CSP
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case MSE:
		return "MSE"
	case SSIM:
		return "SSIM"
	case PSNR:
		return "PSNR"
	case CSP:
		return "CSP"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// AttackDirection returns the comparison direction under which high (Above)
// or low (Below) scores indicate an attack for this metric.
func (m Metric) AttackDirection() Direction {
	switch m {
	case SSIM, PSNR:
		return Below
	default:
		return Above
	}
}

// Direction tells which side of a threshold is classified as an attack.
type Direction int

// Directions. The paper's Algorithms 1-3 use "score >= T" uniformly, which
// is correct for MSE and CSP but inverted for SSIM (their own Figure 7
// shows attack SSIM below benign); Decamouflage is explicit about it.
const (
	// Above classifies score >= threshold as attack.
	Above Direction = iota + 1
	// Below classifies score <= threshold as attack.
	Below
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case Above:
		return "above"
	case Below:
		return "below"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Threshold is a decision boundary over a scorer's output.
type Threshold struct {
	Value     float64   `json:"value"`
	Direction Direction `json:"direction"`
}

// Classify reports whether score falls on the attack side.
func (t Threshold) Classify(score float64) bool {
	switch t.Direction {
	case Below:
		return score <= t.Value
	default:
		return score >= t.Value
	}
}

// Validate checks the threshold is usable.
func (t Threshold) Validate() error {
	if t.Direction != Above && t.Direction != Below {
		return fmt.Errorf("detect: invalid threshold direction %d", int(t.Direction))
	}
	return nil
}

// Verdict is a single method's decision about one image.
type Verdict struct {
	// Attack reports the classification.
	Attack bool
	// Score is the raw metric value the decision was made on.
	Score float64
	// Method names the detection method that produced the verdict.
	Method string
}

// Scorer computes a raw detection score for an image. Implementations must
// be safe for concurrent use. The built-in scorers compute their scores
// through the stage-DAG pipeline (pipeline.go), so a standalone Score —
// the call calibration and evaluation make — runs exactly the code
// Ensemble.Detect runs; third-party implementations are handed the raw
// image.
type Scorer interface {
	// Name identifies the method/metric pair, e.g. "scaling/MSE".
	Name() string
	// Score computes the raw metric value for img.
	Score(img *imgcore.Image) (float64, error)
}

// ErrNilScaler indicates a scorer constructed without its scaler.
var ErrNilScaler = errors.New("detect: scaler is required")

// ScalingScorer implements the paper's Method 1: downscale the input with
// the protected model's scaler, upscale back, and measure the dissimilarity
// between the input and the round trip. Benign images survive the round
// trip; attack images flip to the hidden target.
type ScalingScorer struct {
	// trip is the round-trip stage: the model's input geometry and the
	// scaler options. The source side is each input's own geometry.
	trip   stageKey
	metric Metric
}

// NewScalingScorer builds the Method-1 scorer. It keeps only the scaler's
// destination geometry and options; the round trip is sized to each input.
func NewScalingScorer(scaler *scaling.Scaler, metric Metric) (*ScalingScorer, error) {
	if scaler == nil {
		return nil, ErrNilScaler
	}
	dstW, dstH := scaler.DstSize()
	return newScalingScorer(dstW, dstH, scaler.Options(), metric)
}

// newScalingScorer builds the Method-1 scorer for a dstW×dstH model input.
func newScalingScorer(dstW, dstH int, opts scaling.Options, metric Metric) (*ScalingScorer, error) {
	if metric != MSE && metric != SSIM && metric != PSNR {
		return nil, fmt.Errorf("detect: scaling method does not support metric %v", metric)
	}
	trip := stageKey{kind: stageRoundTrip, dstW: dstW, dstH: dstH, sopts: opts}
	return &ScalingScorer{trip: trip, metric: metric}, nil
}

// Name implements Scorer.
func (s *ScalingScorer) Name() string { return "scaling/" + s.metric.String() }

// Score implements Scorer through a one-member pipeline table.
func (s *ScalingScorer) Score(img *imgcore.Image) (float64, error) {
	return scoreAlone(context.Background(), s, img)
}

// FilteringScorer implements the paper's Method 2: apply a minimum filter
// and measure the dissimilarity between the input and the filtered image.
// The embedded target pixels are extreme values relative to their
// neighborhood, so erosion damages attack images far more than benign ones.
type FilteringScorer struct {
	window int
	metric Metric
}

// NewFilteringScorer builds the Method-2 scorer with the given minimum
// filter window (the paper uses 2).
func NewFilteringScorer(window int, metric Metric) (*FilteringScorer, error) {
	if window < 2 {
		return nil, fmt.Errorf("detect: filter window %d < 2", window)
	}
	if metric != MSE && metric != SSIM && metric != PSNR {
		return nil, fmt.Errorf("detect: filtering method does not support metric %v", metric)
	}
	return &FilteringScorer{window: window, metric: metric}, nil
}

// Name implements Scorer.
func (s *FilteringScorer) Name() string { return "filtering/" + s.metric.String() }

// Score implements Scorer through a one-member pipeline table.
func (s *FilteringScorer) Score(img *imgcore.Image) (float64, error) {
	return scoreAlone(context.Background(), s, img)
}

// StegScorer implements the paper's Method 3: the CSP count in the
// frequency domain (see internal/steg).
type StegScorer struct {
	opts steg.Options
}

// NewStegScorer builds the Method-3 scorer. Zero-valued options take the
// calibrated defaults.
func NewStegScorer(opts steg.Options) *StegScorer {
	return &StegScorer{opts: opts}
}

// Name implements Scorer.
func (s *StegScorer) Name() string { return "steganalysis/CSP" }

// Score implements Scorer through a one-member pipeline table.
func (s *StegScorer) Score(img *imgcore.Image) (float64, error) {
	return scoreAlone(context.Background(), s, img)
}

// Detector couples a scorer with a decision threshold — one deployable
// detection method (the paper's Algorithms 1-3).
type Detector struct {
	scorer    Scorer
	threshold Threshold

	// Per-method score latency and verdict tallies, resolved at
	// construction (detect.score.<name>.seconds, detect.verdict.<name>.*).
	scoreH  *obs.Histogram
	attackC *obs.Counter
	benignC *obs.Counter
}

// NewDetector builds a detector; the threshold must be valid.
func NewDetector(scorer Scorer, threshold Threshold) (*Detector, error) {
	if scorer == nil {
		return nil, errors.New("detect: scorer is required")
	}
	if err := threshold.Validate(); err != nil {
		return nil, err
	}
	name := scorer.Name()
	return &Detector{
		scorer: scorer, threshold: threshold,
		scoreH:  obs.H("detect.score." + name + ".seconds"),
		attackC: obs.C("detect.verdict." + name + ".attack"),
		benignC: obs.C("detect.verdict." + name + ".benign"),
	}, nil
}

// Name returns the underlying scorer's name.
func (d *Detector) Name() string { return d.scorer.Name() }

// Threshold returns the decision boundary.
func (d *Detector) Threshold() Threshold { return d.threshold }

// Detect scores img and classifies it.
func (d *Detector) Detect(img *imgcore.Image) (Verdict, error) {
	return d.DetectCtx(context.Background(), img)
}

// DetectCtx scores img and classifies it through a one-member table,
// recording the method's score latency and verdict tally, and — under a
// traced context — a span named after the method carrying the score and
// decision, with the pipeline's stage spans nested beneath it. A NaN
// score classifies as benign.
func (d *Detector) DetectCtx(ctx context.Context, img *imgcore.Image) (Verdict, error) {
	if err := img.Validate(); err != nil {
		return Verdict{}, err
	}
	in := intermediates(img)
	defer in.release()
	return d.detectIn(ctx, in)
}

// detectIn scores through a per-image Intermediates table, sharing
// memoized substrates with the other members of the table. Plain Scorer
// implementations fall back to Score on the raw image, so third-party
// scorers keep working inside the ensemble unchanged.
func (d *Detector) detectIn(ctx context.Context, in *Intermediates) (Verdict, error) {
	sctx, st := obs.StartStage(ctx, d.scorer.Name(), d.scoreH)
	var (
		score float64
		err   error
	)
	if ps, ok := d.scorer.(pipelineScorer); ok {
		score, err = ps.ScorePipeline(sctx, in)
	} else {
		score, err = d.scorer.Score(in.img)
	}
	if err != nil {
		st.End()
		return Verdict{}, err
	}
	v := Verdict{
		Attack: d.threshold.Classify(score),
		Score:  score,
		Method: d.scorer.Name(),
	}
	sp := st.Span()
	sp.AttrFloat("score", score)
	sp.AttrBool("attack", v.Attack)
	st.End()
	if v.Attack {
		d.attackC.Inc()
	} else {
		d.benignC.Inc()
	}
	return v, nil
}

// DefaultCSPThreshold is the paper's fixed steganalysis decision rule:
// two or more centered spectrum points indicate an attack, with no
// per-dataset calibration required.
func DefaultCSPThreshold() Threshold {
	return Threshold{Value: 2, Direction: Above}
}
