package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"

	"decamouflage/internal/attack"
	"decamouflage/internal/detect"
	"decamouflage/internal/eval"
	"decamouflage/internal/imgcore"
	"decamouflage/internal/report"
	"decamouflage/internal/scaling"
	"decamouflage/internal/stats"
	"decamouflage/internal/steg"
)

// runX6 reproduces the paper's (and Quiring et al.'s) negative result on
// Xiao et al.'s originally proposed defense: color-histogram comparison
// does not separate attacks from benign images. We calibrate it exactly
// like the real methods and report its accuracy and distribution overlap
// next to scaling/MSE on the same corpora.
func (r *Runner) runX6(ctx context.Context) error {
	scaler, err := r.Scaler()
	if err != nil {
		return err
	}
	hist, err := newHistogramScorer(scaler)
	if err != nil {
		return err
	}
	mse, err := r.scalingScorer(detect.MSE)
	if err != nil {
		return err
	}
	train, err := r.Train(ctx)
	if err != nil {
		return err
	}
	evalCorpus, err := r.Eval(ctx)
	if err != nil {
		return err
	}
	tbl := report.NewTable("Color histogram vs MSE as a detection metric (paper Section III-A)",
		"Metric", "Train Acc.", "Eval Acc.", "FAR", "FRR", "Overlap coeff.")
	thresholds := make(map[string]detect.Threshold, 2)
	for _, e := range []struct {
		name   string
		scorer detect.Scorer
	}{
		{"histogram", hist},
		{"scaling/MSE", mse},
	} {
		wb, trainB, trainA, err := calibrateScorer(ctx, e.scorer, train)
		if err != nil {
			return err
		}
		thresholds[e.name] = wb.Threshold
		overlap, err := stats.OverlapCoefficient(trainB, trainA, 30)
		if err != nil {
			return err
		}
		benign, attacks, err := eval.ScorePair(ctx, e.scorer, evalCorpus)
		if err != nil {
			return err
		}
		cs := eval.EvaluateThreshold(wb.Threshold, benign, attacks)
		tbl.AddRow(e.name, report.Pct(wb.TrainAccuracy), report.Pct(cs.Accuracy()),
			report.Pct(cs.FAR()), report.Pct(cs.FRR()), report.F(overlap, 2))
	}
	if err := tbl.Render(r.cfg.Out); err != nil {
		return err
	}

	// The adaptive case that makes the histogram check unusable in
	// principle (Quiring et al.'s point): an attacker whose target has the
	// SAME color histogram as the benign downscale — here, a spatial
	// permutation of scale(O)'s own pixels. The image content changes
	// completely; the histogram cannot.
	n := len(evalCorpus.Benign)
	if n > r.extensionN() {
		n = r.extensionN()
	}
	histDet, err := detect.NewDetector(hist, thresholds["histogram"])
	if err != nil {
		return err
	}
	mseDet, err := detect.NewDetector(mse, thresholds["scaling/MSE"])
	if err != nil {
		return err
	}
	histCaught, mseCaught, functional := 0, 0, 0
	rng := rand.New(rand.NewSource(r.cfg.Seed + 31337))
	for i := 0; i < n; i++ {
		src := evalCorpus.Benign[i]
		down, err := evalCorpus.Scaler.Resize(src)
		if err != nil {
			return err
		}
		target := permutePixels(down, rng)
		res, err := attack.Craft(src, target, attack.Config{Scaler: evalCorpus.Scaler, Eps: r.cfg.Eps})
		if err != nil {
			return err
		}
		rep, err := attack.Success(res.Attack, target, evalCorpus.Scaler)
		if err != nil {
			return err
		}
		if rep.Effective {
			functional++
		}
		v, err := histDet.Detect(res.Attack)
		if err != nil {
			return err
		}
		if v.Attack {
			histCaught++
		}
		v, err = mseDet.Detect(res.Attack)
		if err != nil {
			return err
		}
		if v.Attack {
			mseCaught++
		}
	}
	adaptive := report.NewTable(
		fmt.Sprintf("Adaptive histogram-matched attacks (target = permuted scale(O); N=%d)", n),
		"Attacks functional", "Caught by histogram", "Caught by scaling/MSE")
	adaptive.AddRow(fmt.Sprintf("%d/%d", functional, n),
		fmt.Sprintf("%d/%d", histCaught, n), fmt.Sprintf("%d/%d", mseCaught, n))
	return adaptive.Render(r.cfg.Out)
}

// permutePixels returns a copy of img with its pixel tuples spatially
// shuffled: identical color histogram, unrelated content.
func permutePixels(img *imgcore.Image, rng *rand.Rand) *imgcore.Image {
	out := img.Clone()
	n := img.W * img.H
	perm := rng.Perm(n)
	for i, p := range perm {
		for c := 0; c < img.C; c++ {
			out.Pix[i*img.C+c] = img.Pix[p*img.C+c]
		}
	}
	return out
}

// histogramScorer is the color-histogram check Xiao et al. suggested, but
// did not evaluate, as a defense: compare the color histogram of the input
// with that of its downscaled output; an attack image's downscale shows
// the hidden target, so its colors should differ.
//
// The paper (Section III-A) raises it only to reject it, and X6 and X7
// reproduce why: the metric does NOT separate attacks from benign images
// (scaling legitimately changes color statistics, and the attack only
// needs to perturb a sparse pixel subset whose mass barely moves the
// histogram). It lives here, next to those two experiments, as a baseline
// and not as a detection method.
type histogramScorer struct {
	scaler *scaling.Scaler
}

// histogramBins is the number of histogram bins per channel.
const histogramBins = 32

// newHistogramScorer builds the baseline scorer over the given scaler.
func newHistogramScorer(scaler *scaling.Scaler) (*histogramScorer, error) {
	if scaler == nil {
		return nil, detect.ErrNilScaler
	}
	return &histogramScorer{scaler: scaler}, nil
}

// Name implements detect.Scorer.
func (s *histogramScorer) Name() string { return "histogram/intersection" }

// Score implements detect.Scorer. It returns 1 − histogram intersection
// between the input image and its downscaled output, in [0,1]: 0 means
// identical color distributions, 1 means disjoint. Under Xiao et al.'s
// hypothesis attacks should score high; in practice the distributions
// overlap. An image with a NaN or ±Inf sample has no histogram and scores
// NaN, as every metric in internal/metrics does.
func (s *histogramScorer) Score(img *imgcore.Image) (float64, error) {
	if err := img.Validate(); err != nil {
		return 0, err
	}
	for _, v := range img.Pix {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return math.NaN(), nil
		}
	}
	down, err := s.scaler.Resize(img)
	if err != nil {
		return 0, fmt.Errorf("experiments: histogram downscale: %w", err)
	}
	hi := s.histogram(img)
	hd := s.histogram(down)
	var inter float64
	for i := range hi {
		inter += math.Min(hi[i], hd[i])
	}
	// Normalize by channel count: each channel histogram sums to 1.
	inter /= float64(img.C)
	return 1 - inter, nil
}

// histogram returns the concatenated normalized per-channel histograms.
func (s *histogramScorer) histogram(img *imgcore.Image) []float64 {
	h := make([]float64, histogramBins*img.C)
	scale := float64(histogramBins) / 256.0
	for i := 0; i < img.W*img.H; i++ {
		for c := 0; c < img.C; c++ {
			v := img.Pix[i*img.C+c]
			b := int(v * scale)
			if b < 0 {
				b = 0
			} else if b >= histogramBins {
				b = histogramBins - 1
			}
			h[c*histogramBins+b]++
		}
	}
	n := float64(img.W * img.H)
	for i := range h {
		h[i] /= n
	}
	return h
}

// runX7 computes the ROC AUC of every score metric on the evaluation
// corpus — a threshold-free view of each method's separability.
func (r *Runner) runX7(ctx context.Context) error {
	evalCorpus, err := r.Eval(ctx)
	if err != nil {
		return err
	}
	scaler, err := r.Scaler()
	if err != nil {
		return err
	}
	hist, err := newHistogramScorer(scaler)
	if err != nil {
		return err
	}
	type entry struct {
		name   string
		scorer detect.Scorer
		dir    detect.Direction
	}
	var entries []entry
	for _, m := range []detect.Metric{detect.MSE, detect.SSIM, detect.PSNR} {
		ss, err := r.scalingScorer(m)
		if err != nil {
			return err
		}
		entries = append(entries, entry{"scaling/" + m.String(), ss, m.AttackDirection()})
		fs, err := r.filteringScorer(m)
		if err != nil {
			return err
		}
		entries = append(entries, entry{"filtering/" + m.String(), fs, m.AttackDirection()})
	}
	entries = append(entries,
		entry{"steganalysis/CSP", detect.NewStegScorer(steg.Options{}), detect.Above},
		entry{"histogram", hist, detect.Above},
	)
	tbl := report.NewTable("ROC AUC per score metric (threshold-free separability)",
		"Metric", "AUC", "Verdict")
	for _, e := range entries {
		if err := ctx.Err(); err != nil {
			return err
		}
		benign, attacks, err := eval.ScorePair(ctx, e.scorer, evalCorpus)
		if err != nil {
			return err
		}
		points, auc, err := eval.ROC(benign, attacks, e.dir)
		if err != nil {
			return err
		}
		verdict := "unusable"
		switch {
		case auc >= 0.99:
			verdict = "excellent"
		case auc >= 0.9:
			verdict = "good"
		case auc >= 0.7:
			verdict = "weak"
		}
		tbl.AddRow(e.name, report.F(auc, 4), verdict)
		name := e.name
		if err := r.writeCSV("x7_roc_"+sanitize(name)+".csv", func(w io.Writer) error {
			fpr := make([]float64, len(points))
			tpr := make([]float64, len(points))
			for i, p := range points {
				fpr[i], tpr[i] = p.FPR, p.TPR
			}
			return report.WriteCSV(w, []string{"fpr", "tpr"}, fpr, tpr)
		}); err != nil {
			return err
		}
	}
	return tbl.Render(r.cfg.Out)
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// runX8 measures robustness to JPEG recompression — a lossy channel real
// uploads pass through. It reports, per quality level, whether the attack
// still works after recompression and whether Decamouflage still detects
// the recompressed attack images.
func (r *Runner) runX8(ctx context.Context) error {
	evalCorpus, err := r.Eval(ctx)
	if err != nil {
		return err
	}
	train, bb, err := r.TrainBlackBox(ctx)
	if err != nil {
		return err
	}
	ens, err := ensembleOn(train, bb)
	if err != nil {
		return err
	}
	n := len(evalCorpus.Attacks)
	if n > r.extensionN() {
		n = r.extensionN()
	}
	tbl := report.NewTable("JPEG recompression robustness",
		"JPEG quality", "Attack survives", "Detected (of survivors)", "Detected (all)", "Benign FRR")
	for _, q := range []int{100, 90, 75, 50, 30} {
		if err := ctx.Err(); err != nil {
			return err
		}
		survive, detectedSurvivors, detectedAll, benignFlagged := 0, 0, 0, 0
		for i := 0; i < n; i++ {
			jp, err := imgcore.JPEGRoundTrip(evalCorpus.Attacks[i], q)
			if err != nil {
				return err
			}
			rep, err := attack.Success(jp, evalCorpus.Targets[i], evalCorpus.Scaler)
			if err != nil {
				return err
			}
			v, err := ens.Detect(ctx, jp)
			if err != nil {
				return err
			}
			if v.Attack {
				detectedAll++
			}
			if rep.Effective {
				survive++
				if v.Attack {
					detectedSurvivors++
				}
			}
			bjp, err := imgcore.JPEGRoundTrip(evalCorpus.Benign[i], q)
			if err != nil {
				return err
			}
			bv, err := ens.Detect(ctx, bjp)
			if err != nil {
				return err
			}
			if bv.Attack {
				benignFlagged++
			}
		}
		survDetected := "n/a"
		if survive > 0 {
			survDetected = fmt.Sprintf("%d/%d", detectedSurvivors, survive)
		}
		tbl.AddRow(fmt.Sprintf("%d", q),
			fmt.Sprintf("%d/%d", survive, n),
			survDetected,
			fmt.Sprintf("%d/%d", detectedAll, n),
			fmt.Sprintf("%d/%d", benignFlagged, n))
	}
	if err := tbl.Render(r.cfg.Out); err != nil {
		return err
	}
	r.printf("  (Reading: 'survives' tracks the embedded comb through JPEG quantization;\n" +
		"  'detected' shows whether Decamouflage still flags the recompressed image.)\n\n")
	return nil
}
