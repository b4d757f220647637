// Package decamouflage is the public API of this reproduction of
// "Decamouflage: A Framework to Detect Image-Scaling Attacks on
// Convolutional Neural Networks" (Kim et al., DSN 2021).
//
// Decamouflage detects image-scaling (camouflage) attacks — adversarial
// images that look benign to humans but resolve to a hidden target image
// after the downscaling step of a CNN pipeline — using three independent
// methods that can be deployed alone or majority-voted as an ensemble:
//
//   - Scaling detection: downscale then upscale; benign images survive the
//     round trip, attack images flip to the hidden target (scored by MSE or
//     SSIM).
//   - Filtering detection: a 2x2 minimum filter destroys the isolated
//     embedded pixels; the residual exposes attacks (scored by MSE/SSIM).
//   - Steganalysis detection: the attack's near-periodic pixel comb leaves
//     replicated bright peaks in the centered Fourier spectrum; counting
//     them (CSP) separates attacks (CSP >= 2) from benign images (CSP = 1)
//     with a fixed, dataset-independent threshold.
//
// # Quick start
//
//	scaler, _ := decamouflage.NewScaler(1024, 768, 224, 224, decamouflage.Bilinear)
//	det, _ := decamouflage.NewSteganalysisDetector()   // no calibration needed
//	verdict, _ := det.Detect(img)
//	if verdict.Attack {
//	    // reject the input
//	}
//
// For the calibrated scaling/filtering methods and the full ensemble, see
// CalibrateWhiteBox / CalibrateBlackBox and NewEnsemble. The heavy lifting
// lives in internal packages; this package re-exports the stable surface.
package decamouflage

import (
	"context"
	"fmt"
	"io"

	"decamouflage/internal/attack"
	"decamouflage/internal/detect"
	"decamouflage/internal/imgcore"
	"decamouflage/internal/scaling"
	"decamouflage/internal/steg"
)

// Image is the pixel container used across the API: float64 samples in
// [0,255], H×W×C.
type Image = imgcore.Image

// Verdict is a single method's decision.
type Verdict = detect.Verdict

// EnsembleVerdict is the majority-vote decision.
type EnsembleVerdict = detect.EnsembleVerdict

// Threshold is a decision boundary with a comparison direction.
type Threshold = detect.Threshold

// Metric selects a score function.
type Metric = detect.Metric

// Score metrics.
const (
	MSE  = detect.MSE
	SSIM = detect.SSIM
	PSNR = detect.PSNR
	CSP  = detect.CSP
)

// Threshold directions.
const (
	Above = detect.Above
	Below = detect.Below
)

// Algorithm selects a scaling kernel.
type Algorithm = scaling.Algorithm

// Scaling algorithms.
const (
	Nearest  = scaling.Nearest
	Bilinear = scaling.Bilinear
	Bicubic  = scaling.Bicubic
	Lanczos  = scaling.Lanczos
	Area     = scaling.Area
)

// Scaler is a prepared resizing operator (the model's preprocessing step).
type Scaler = scaling.Scaler

// Detector is one deployable detection method.
type Detector = detect.Detector

// Ensemble is the majority-voting combination of methods.
type Ensemble = detect.Ensemble

// StegOptions tunes the steganalysis (CSP) method.
type StegOptions = steg.Options

// NewScaler prepares a scaler from (srcW, srcH) to (dstW, dstH) using the
// given algorithm without antialiasing — the vulnerable OpenCV/TensorFlow
// semantics the paper targets.
func NewScaler(srcW, srcH, dstW, dstH int, alg Algorithm) (*Scaler, error) {
	return scaling.NewScaler(srcW, srcH, dstW, dstH, scaling.Options{Algorithm: alg})
}

// LoadImage reads a PNG or JPEG file.
func LoadImage(path string) (*Image, error) { return imgcore.Load(path) }

// DecodeImage reads a PNG or JPEG stream.
func DecodeImage(r io.Reader) (*Image, error) { return imgcore.Decode(r) }

// NewScalingDetector builds the Method-1 detector (downscale/upscale round
// trip) with the given metric and calibrated threshold.
func NewScalingDetector(s *Scaler, metric Metric, th Threshold) (*Detector, error) {
	scorer, err := detect.NewScalingScorer(s, metric)
	if err != nil {
		return nil, err
	}
	return detect.NewDetector(scorer, th)
}

// NewFilteringDetector builds the Method-2 detector (minimum filter
// residual) with the given window (the paper uses 2), metric and threshold.
func NewFilteringDetector(window int, metric Metric, th Threshold) (*Detector, error) {
	scorer, err := detect.NewFilteringScorer(window, metric)
	if err != nil {
		return nil, err
	}
	return detect.NewDetector(scorer, th)
}

// NewSteganalysisDetector builds the Method-3 detector with the paper's
// fixed CSP >= 2 rule — deployable with no calibration. Options may be
// omitted for the calibrated defaults.
func NewSteganalysisDetector(opts ...StegOptions) (*Detector, error) {
	var o StegOptions
	if len(opts) > 1 {
		return nil, fmt.Errorf("decamouflage: at most one StegOptions, got %d", len(opts))
	}
	if len(opts) == 1 {
		o = opts[0]
	}
	return detect.NewDetector(detect.NewStegScorer(o), detect.DefaultCSPThreshold())
}

// NewEnsemble assembles the canonical three-method Decamouflage system:
// scaling/MSE + filtering/SSIM + steganalysis/CSP under majority voting.
// The scaling and filtering thresholds come from CalibrateWhiteBox or
// CalibrateBlackBox. It builds the SystemConfig for s's model geometry
// and algorithm through BuildSystem, so it yields the ensemble a gateway
// serving that config runs.
func NewEnsemble(s *Scaler, scalingTh, filteringTh Threshold) (*Ensemble, error) {
	if s == nil {
		return nil, detect.ErrNilScaler
	}
	// A SystemConfig names only the algorithm; refuse a scaler whose
	// other options the ensemble would silently drop.
	opts := s.Options()
	if opts.Antialias || (opts.Coord != 0 && opts.Coord != scaling.HalfPixel) {
		return nil, fmt.Errorf("decamouflage: NewEnsemble serves plain %v scaling, not %+v", opts.Algorithm, opts)
	}
	dstW, dstH := s.DstSize()
	return detect.BuildSystem(&detect.SystemConfig{
		DstW: dstW, DstH: dstH, Algorithm: opts.Algorithm.String(),
		Thresholds: map[string]Threshold{"scaling/MSE": scalingTh, "filtering/SSIM": filteringTh},
	})
}

// ScoreScaling computes Method 1's raw score for one image, through the
// same stage code Detect runs, so thresholds calibrated on these scores
// judge bit-identical ensemble scores.
func ScoreScaling(s *Scaler, metric Metric, img *Image) (float64, error) {
	scorer, err := detect.NewScalingScorer(s, metric)
	if err != nil {
		return 0, err
	}
	return scorer.Score(img)
}

// ScoreFiltering computes Method 2's raw score for one image, through the
// same stage code Detect runs.
func ScoreFiltering(window int, metric Metric, img *Image) (float64, error) {
	scorer, err := detect.NewFilteringScorer(window, metric)
	if err != nil {
		return 0, err
	}
	return scorer.Score(img)
}

// ScoreCSP computes Method 3's centered-spectrum-point count, through the
// same stage code Detect runs.
func ScoreCSP(img *Image, opts ...StegOptions) (int, error) {
	var o StegOptions
	if len(opts) > 1 {
		return 0, fmt.Errorf("decamouflage: at most one StegOptions, got %d", len(opts))
	}
	if len(opts) == 1 {
		o = opts[0]
	}
	n, err := detect.NewStegScorer(o).Score(img)
	return int(n), err
}

// CalibrateWhiteBox selects the optimal threshold from labelled benign and
// attack scores (the paper's white-box setting). It returns the threshold
// and the training accuracy achieved.
func CalibrateWhiteBox(benignScores, attackScores []float64) (Threshold, float64, error) {
	res, err := detect.CalibrateWhiteBox(benignScores, attackScores)
	if err != nil {
		return Threshold{}, 0, err
	}
	return res.Threshold, res.TrainAccuracy, nil
}

// CalibrateBlackBox selects a percentile threshold from benign scores alone
// (the paper's black-box setting). Use metric.AttackDirection() — Above for
// MSE/CSP, Below for SSIM — as the direction.
func CalibrateBlackBox(benignScores []float64, percentile float64, metric Metric) (Threshold, error) {
	return detect.CalibrateBlackBox(benignScores, percentile, metric.AttackDirection())
}

// Detect runs the ensemble on one image.
func Detect(ctx context.Context, e *Ensemble, img *Image) (*EnsembleVerdict, error) {
	if e == nil {
		return nil, fmt.Errorf("decamouflage: nil ensemble")
	}
	return e.Detect(ctx, img)
}

// DetectBatch runs the ensemble over many images concurrently (bounded by
// GOMAXPROCS, via the shared internal/parallel substrate) and returns one
// verdict per image, in order. It stops at the first error or context
// cancellation — the offline audit mode of the paper's threat model. An
// empty batch returns an empty, non-nil verdict slice.
func DetectBatch(ctx context.Context, e *Ensemble, imgs []*Image) ([]*EnsembleVerdict, error) {
	if e == nil {
		return nil, fmt.Errorf("decamouflage: nil ensemble")
	}
	return e.DetectBatch(ctx, imgs)
}

// SystemConfig is the full serializable description of a deployed
// Decamouflage system (geometry, kernel, thresholds); see BuildSystem.
type SystemConfig = detect.SystemConfig

// BuildSystem instantiates the ensemble a SystemConfig describes —
// everything a gateway needs to reconstruct its calibrated detector at
// startup.
func BuildSystem(c *SystemConfig) (*Ensemble, error) {
	return detect.BuildSystem(c)
}

// EstimateAttackTarget estimates the geometry of the hidden target inside
// a flagged attack image from its spectral replica spacing. Intended as
// forensic follow-up on images the detector flagged; see
// internal/steg.EstimateTargetSize for the caveats.
func EstimateAttackTarget(img *Image) (w, h int, ok bool) {
	return steg.EstimateTargetSize(img, steg.Options{})
}

// MatchModels returns the known CNN families (the paper's Table 1) whose
// input geometry is within tol pixels of (w, h) — turning a recovered
// attack-target size into the likely targeted model.
func MatchModels(w, h, tol int) []detect.ModelInputSize {
	return detect.MatchModels(w, h, tol)
}

// AttackConfig parameterizes CraftAttack.
type AttackConfig = attack.Config

// AttackResult reports a crafted attack image and its quality.
type AttackResult = attack.Result

// CraftAttack generates an image-scaling attack image embedding target into
// source against the given scaler (for research, testing and red-teaming;
// this is the Xiao et al. attack the detectors are evaluated against).
func CraftAttack(source, target *Image, s *Scaler, eps float64) (*AttackResult, error) {
	return attack.Craft(source, target, attack.Config{Scaler: s, Eps: eps})
}
