// Package eval provides the experiment harness Decamouflage's evaluation is
// built on: labelled benign/attack corpora, parallel scoring, the one
// white-box and black-box calibration of the canonical ensemble,
// confusion-matrix statistics (accuracy, precision, recall, FAR, FRR — the
// paper's five headline metrics), ensemble evaluation, and per-image
// runtime measurement.
package eval

import (
	"context"
	"errors"
	"fmt"
	"time"

	"decamouflage/internal/attack"
	"decamouflage/internal/dataset"
	"decamouflage/internal/detect"
	"decamouflage/internal/imgcore"
	"decamouflage/internal/parallel"
	"decamouflage/internal/scaling"
	"decamouflage/internal/stats"
)

// ConfusionStats counts classification outcomes. Attack is the positive
// class, matching the paper's definitions: FAR is the fraction of attacks
// accepted as benign, FRR the fraction of benign rejected as attacks.
type ConfusionStats struct {
	TP, TN, FP, FN int
}

// Add merges another confusion count into this one.
func (c *ConfusionStats) Add(o ConfusionStats) {
	c.TP += o.TP
	c.TN += o.TN
	c.FP += o.FP
	c.FN += o.FN
}

// Record tallies one labelled outcome.
func (c *ConfusionStats) Record(isAttack, flagged bool) {
	switch {
	case isAttack && flagged:
		c.TP++
	case isAttack && !flagged:
		c.FN++
	case !isAttack && flagged:
		c.FP++
	default:
		c.TN++
	}
}

// Total returns the number of recorded outcomes.
func (c ConfusionStats) Total() int { return c.TP + c.TN + c.FP + c.FN }

// Accuracy is the fraction of correct classifications.
func (c ConfusionStats) Accuracy() float64 {
	if t := c.Total(); t > 0 {
		return float64(c.TP+c.TN) / float64(t)
	}
	return 0
}

// Precision is TP/(TP+FP) — of flagged images, how many were attacks.
func (c ConfusionStats) Precision() float64 {
	if d := c.TP + c.FP; d > 0 {
		return float64(c.TP) / float64(d)
	}
	return 0
}

// Recall is TP/(TP+FN) — of attacks, how many were flagged.
func (c ConfusionStats) Recall() float64 {
	if d := c.TP + c.FN; d > 0 {
		return float64(c.TP) / float64(d)
	}
	return 0
}

// FAR is FN/(TP+FN): attacks accepted as benign.
func (c ConfusionStats) FAR() float64 {
	if d := c.TP + c.FN; d > 0 {
		return float64(c.FN) / float64(d)
	}
	return 0
}

// FRR is FP/(TN+FP): benign rejected as attacks.
func (c ConfusionStats) FRR() float64 {
	if d := c.TN + c.FP; d > 0 {
		return float64(c.FP) / float64(d)
	}
	return 0
}

// String renders the five headline percentages.
func (c ConfusionStats) String() string {
	return fmt.Sprintf("acc=%.1f%% prec=%.1f%% rec=%.1f%% FAR=%.1f%% FRR=%.1f%%",
		c.Accuracy()*100, c.Precision()*100, c.Recall()*100, c.FAR()*100, c.FRR()*100)
}

// Corpus is a labelled experiment dataset: benign originals, their attack
// counterparts, and the targets the attacks embed.
type Corpus struct {
	Benign  []*imgcore.Image
	Attacks []*imgcore.Image
	Targets []*imgcore.Image
	// Scaler is the scaling function the attacks were crafted against.
	Scaler *scaling.Scaler
}

// CorpusSpec declares how to synthesize a Corpus.
type CorpusSpec struct {
	// Corpus picks the generator family (calibration vs evaluation).
	Corpus dataset.Corpus
	// N is the number of benign (and attack) images.
	N int
	// SrcW/SrcH and DstW/DstH define the scaling geometry.
	SrcW, SrcH, DstW, DstH int
	// C is the channel count (default 3).
	C int
	// Seed drives the deterministic generators.
	Seed int64
	// Algorithm is the scaling algorithm under attack (default Bilinear).
	Algorithm scaling.Algorithm
	// AttackAlgorithm, when set, crafts attacks against a DIFFERENT
	// algorithm than the detector's (the X1 cross-kernel experiment).
	AttackAlgorithm scaling.Algorithm
	// Eps is the attack's L∞ budget (default 2).
	Eps float64
}

func (s CorpusSpec) withDefaults() CorpusSpec {
	if s.C == 0 {
		s.C = 3
	}
	if s.Algorithm == 0 {
		s.Algorithm = scaling.Bilinear
	}
	if s.AttackAlgorithm == 0 {
		s.AttackAlgorithm = s.Algorithm
	}
	//declint:ignore floateq zero is the unset-option sentinel, set only by literal omission
	if s.Eps == 0 {
		s.Eps = 2
	}
	return s
}

func (s CorpusSpec) validate() error {
	if s.N <= 0 {
		return fmt.Errorf("eval: corpus size %d must be positive", s.N)
	}
	if s.SrcW <= 0 || s.SrcH <= 0 || s.DstW <= 0 || s.DstH <= 0 {
		return fmt.Errorf("eval: invalid geometry %dx%d -> %dx%d", s.SrcW, s.SrcH, s.DstW, s.DstH)
	}
	return nil
}

// BuildCorpus synthesizes benign images and crafts one attack per benign
// image, in parallel across CPUs. The returned corpus's Scaler uses
// spec.Algorithm (the defender's view), while attacks are crafted against
// spec.AttackAlgorithm.
func BuildCorpus(ctx context.Context, spec CorpusSpec) (*Corpus, error) {
	spec = spec.withDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	gen, err := dataset.NewGenerator(dataset.Config{
		Corpus: spec.Corpus, W: spec.SrcW, H: spec.SrcH, C: spec.C, Seed: spec.Seed,
	})
	if err != nil {
		return nil, err
	}
	tgen, err := dataset.NewGenerator(dataset.Config{
		Corpus: spec.Corpus, W: spec.DstW, H: spec.DstH, C: spec.C, Seed: spec.Seed + 7919,
	})
	if err != nil {
		return nil, err
	}
	defScaler, err := scaling.NewScaler(spec.SrcW, spec.SrcH, spec.DstW, spec.DstH,
		scaling.Options{Algorithm: spec.Algorithm})
	if err != nil {
		return nil, err
	}
	atkScaler, err := scaling.NewScaler(spec.SrcW, spec.SrcH, spec.DstW, spec.DstH,
		scaling.Options{Algorithm: spec.AttackAlgorithm})
	if err != nil {
		return nil, err
	}

	c := &Corpus{
		Benign:  make([]*imgcore.Image, spec.N),
		Attacks: make([]*imgcore.Image, spec.N),
		Targets: make([]*imgcore.Image, spec.N),
		Scaler:  defScaler,
	}
	err = forEachParallel(ctx, spec.N, func(i int) error {
		benign := gen.Image(i)
		target := tgen.Image(i)
		res, err := attack.Craft(benign, target, attack.Config{Scaler: atkScaler, Eps: spec.Eps})
		if err != nil {
			return fmt.Errorf("eval: crafting attack %d: %w", i, err)
		}
		c.Benign[i] = benign
		c.Targets[i] = target
		c.Attacks[i] = res.Attack
		return nil
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// forEachParallel fans fn(i) for i in [0,n) through the shared parallel
// substrate, stopping on the first error (ties broken toward the lowest
// index, so the returned error is deterministic) or context cancellation.
func forEachParallel(ctx context.Context, n int, fn func(i int) error) error {
	return parallel.For(ctx, n, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	})
}

// Scores evaluates a scorer over imgs in parallel, returning one score per
// image. Scores are deterministic per image, so the worker count does not
// change them.
func Scores(ctx context.Context, s detect.Scorer, imgs []*imgcore.Image) ([]float64, error) {
	if s == nil {
		return nil, errors.New("eval: nil scorer")
	}
	out := make([]float64, len(imgs))
	err := forEachParallel(ctx, len(imgs), func(i int) error {
		v, err := s.Score(imgs[i])
		if err != nil {
			return fmt.Errorf("eval: image %d: %w", i, err)
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ScorePair evaluates a scorer over the corpus's benign and attack sets,
// returning the two score vectors.
func ScorePair(ctx context.Context, s detect.Scorer, c *Corpus) (benign, attacks []float64, err error) {
	if benign, err = Scores(ctx, s, c.Benign); err != nil {
		return nil, nil, fmt.Errorf("benign: %w", err)
	}
	if attacks, err = Scores(ctx, s, c.Attacks); err != nil {
		return nil, nil, fmt.Errorf("attacks: %w", err)
	}
	return benign, attacks, nil
}

// MethodThreshold is one calibrated method of the canonical ensemble.
type MethodThreshold struct {
	// Name is the built-in method name ("scaling/MSE"), the key a
	// Calibration or SystemConfig stores the threshold under.
	Name      string
	Threshold detect.Threshold
	// TrainAccuracy is the white-box accuracy on the calibration scores;
	// black-box calibration leaves it 0.
	TrainAccuracy float64
}

// CalibrateWhiteBox picks the accuracy-optimal threshold of each
// calibrated method of the canonical ensemble from c's benign and attack
// scores (the paper's white-box setting).
func CalibrateWhiteBox(ctx context.Context, c *Corpus) ([]MethodThreshold, error) {
	return calibrate(c, func(s detect.Scorer, _ detect.Metric) (MethodThreshold, error) {
		benign, attacks, err := ScorePair(ctx, s, c)
		if err != nil {
			return MethodThreshold{}, err
		}
		wb, err := detect.CalibrateWhiteBox(benign, attacks)
		if err != nil {
			return MethodThreshold{}, err
		}
		return MethodThreshold{Threshold: wb.Threshold, TrainAccuracy: wb.TrainAccuracy}, nil
	})
}

// CalibrateBlackBox takes each calibrated method's threshold at the given
// percentile of c's benign scores (the paper's black-box setting). It
// scores c.Benign only; c.Attacks may be empty.
func CalibrateBlackBox(ctx context.Context, c *Corpus, percentile float64) ([]MethodThreshold, error) {
	return calibrate(c, func(s detect.Scorer, m detect.Metric) (MethodThreshold, error) {
		benign, err := Scores(ctx, s, c.Benign)
		if err != nil {
			return MethodThreshold{}, err
		}
		th, err := detect.CalibrateBlackBox(benign, percentile, m.AttackDirection())
		return MethodThreshold{Threshold: th}, err
	})
}

// calibrate builds the canonical ensemble's calibrated scorers on
// c.Scaler, scaling/MSE and then filtering/SSIM (window 2), and picks a
// threshold for each in that order. Steganalysis keeps the paper's fixed
// CSP >= 2 rule and needs no calibration.
func calibrate(c *Corpus, pick func(detect.Scorer, detect.Metric) (MethodThreshold, error)) ([]MethodThreshold, error) {
	ss, err := detect.NewScalingScorer(c.Scaler, detect.MSE)
	if err != nil {
		return nil, err
	}
	fs, err := detect.NewFilteringScorer(2, detect.SSIM)
	if err != nil {
		return nil, err
	}
	var out []MethodThreshold
	for _, m := range []struct {
		scorer detect.Scorer
		metric detect.Metric
	}{{ss, detect.MSE}, {fs, detect.SSIM}} {
		mt, err := pick(m.scorer, m.metric)
		if err != nil {
			return nil, fmt.Errorf("eval: calibrating %s: %w", m.scorer.Name(), err)
		}
		mt.Name = m.scorer.Name()
		out = append(out, mt)
	}
	return out, nil
}

// Thresholds keys calibrated thresholds by method name, the form a
// SystemConfig or Calibration stores them in.
func Thresholds(ms []MethodThreshold) map[string]detect.Threshold {
	out := make(map[string]detect.Threshold, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Threshold
	}
	return out
}

// EvaluateThreshold classifies precomputed score vectors under a threshold.
func EvaluateThreshold(th detect.Threshold, benign, attacks []float64) ConfusionStats {
	var c ConfusionStats
	for _, s := range benign {
		c.Record(false, th.Classify(s))
	}
	for _, s := range attacks {
		c.Record(true, th.Classify(s))
	}
	return c
}

// EvaluateEnsemble runs an ensemble over the whole corpus as one batch. It
// returns the majority vote's confusion stats and each member's, in the
// order of e.Detectors().
func EvaluateEnsemble(ctx context.Context, e *detect.Ensemble, c *Corpus) (vote ConfusionStats, members []ConfusionStats, err error) {
	if e == nil {
		return ConfusionStats{}, nil, errors.New("eval: nil ensemble")
	}
	imgs := append(append([]*imgcore.Image(nil), c.Benign...), c.Attacks...)
	verdicts, err := e.DetectBatch(ctx, imgs)
	if err != nil {
		return ConfusionStats{}, nil, err
	}
	members = make([]ConfusionStats, len(e.Detectors()))
	for i, v := range verdicts {
		isAttack := i >= len(c.Benign)
		vote.Record(isAttack, v.Attack)
		for j, mv := range v.Verdicts {
			members[j].Record(isAttack, mv.Attack)
		}
	}
	return vote, members, nil
}

// RuntimeStats is the paper's Table-7 measurement for one method/metric.
type RuntimeStats struct {
	// MeanMillis and StdMillis summarize per-image wall time.
	MeanMillis, StdMillis float64
	// N is the number of timed images.
	N int
}

// MeasureRuntime times a scorer per image over the corpus's benign set
// (sequentially, to measure single-image latency as the paper does).
func MeasureRuntime(s detect.Scorer, imgs []*imgcore.Image) (RuntimeStats, error) {
	if s == nil {
		return RuntimeStats{}, errors.New("eval: nil scorer")
	}
	if len(imgs) == 0 {
		return RuntimeStats{}, errors.New("eval: no images to time")
	}
	samples := make([]float64, len(imgs))
	for i, img := range imgs {
		start := time.Now()
		if _, err := s.Score(img); err != nil {
			return RuntimeStats{}, fmt.Errorf("eval: timing image %d: %w", i, err)
		}
		samples[i] = float64(time.Since(start).Microseconds()) / 1000
	}
	mean, std := stats.MeanStd(samples)
	return RuntimeStats{MeanMillis: mean, StdMillis: std, N: len(samples)}, nil
}
