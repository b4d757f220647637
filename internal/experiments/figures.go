package experiments

import (
	"context"
	"fmt"
	"io"

	"decamouflage/internal/detect"
	"decamouflage/internal/eval"
	"decamouflage/internal/filtering"
	"decamouflage/internal/imgcore"
	"decamouflage/internal/metrics"
	"decamouflage/internal/report"
	"decamouflage/internal/scaling"
	"decamouflage/internal/stats"
	"decamouflage/internal/steg"
)

// runF1 reproduces the paper's Figures 1/2: one end-to-end attack with its
// quality numbers and artifact images.
func (r *Runner) runF1(ctx context.Context) error {
	evalCorpus, err := r.Eval(ctx)
	if err != nil {
		return err
	}
	src := evalCorpus.Benign[0]
	tgt := evalCorpus.Targets[0]
	atk := evalCorpus.Attacks[0]
	down, err := evalCorpus.Scaler.Resize(atk)
	if err != nil {
		return err
	}
	ssimAO, err := metrics.SSIM(atk, src)
	if err != nil {
		return err
	}
	mseAO, err := metrics.MSE(atk, src)
	if err != nil {
		return err
	}
	ssimDT, err := metrics.SSIM(down, tgt)
	if err != nil {
		return err
	}
	mseDT, err := metrics.MSE(down, tgt)
	if err != nil {
		return err
	}
	tbl := report.NewTable("Attack example (paper Figures 1-2)", "Relation", "MSE", "SSIM", "Paper criterion")
	tbl.AddRow("attack A vs source O", report.F(mseAO, 1), report.F(ssimAO, 3), "A looks like O to humans")
	tbl.AddRow("scale(A) vs target T", report.F(mseDT, 1), report.F(ssimDT, 3), "model sees T")
	if err := tbl.Render(r.cfg.Out); err != nil {
		return err
	}
	for name, img := range map[string]*imgcore.Image{
		"f1_source.png": src, "f1_target.png": tgt, "f1_attack.png": atk, "f1_downscaled.png": down,
	} {
		if err := r.saveArtifact(name, img); err != nil {
			return err
		}
	}
	return nil
}

// runF3 reproduces Figure 3: the scaling-detection intuition — a benign
// image survives the down/up round trip, an attack image flips.
func (r *Runner) runF3(ctx context.Context) error {
	evalCorpus, err := r.Eval(ctx)
	if err != nil {
		return err
	}
	opts := evalCorpus.Scaler.Options()
	tbl := report.NewTable("Scaling-detection intuition (paper Figure 3)",
		"Case", "MSE(I, S)", "SSIM(I, S)")
	for _, c := range []struct {
		name string
		img  *imgcore.Image
	}{
		{"benign", evalCorpus.Benign[0]},
		{"attack", evalCorpus.Attacks[0]},
	} {
		_, up, err := scaling.DownUp(c.img, r.cfg.DstW, r.cfg.DstH, opts)
		if err != nil {
			return err
		}
		mse, err := metrics.MSE(c.img, up)
		if err != nil {
			return err
		}
		ssim, err := metrics.SSIM(c.img, up)
		if err != nil {
			return err
		}
		tbl.AddRow(c.name, report.F(mse, 1), report.F(ssim, 3))
		if err := r.saveArtifact("f3_"+c.name+"_roundtrip.png", up); err != nil {
			return err
		}
	}
	return tbl.Render(r.cfg.Out)
}

// runF4 reproduces Figures 4/5: rank filters applied to an attack image.
// The minimum filter reveals the embedded target; quantified as the
// similarity between the filtered image's downscale and the target.
func (r *Runner) runF4(ctx context.Context) error {
	evalCorpus, err := r.Eval(ctx)
	if err != nil {
		return err
	}
	atk := evalCorpus.Attacks[0]
	tgt := evalCorpus.Targets[0]
	src := evalCorpus.Benign[0]
	tbl := report.NewTable("Filters on an attack image (paper Figures 4-5)",
		"Filter", "MSE(A, F)", "SSIM(scale(F), T)", "SSIM(scale(F), scale(O))")
	benignDown, err := evalCorpus.Scaler.Resize(src)
	if err != nil {
		return err
	}
	for _, f := range []struct {
		name  string
		apply func(*imgcore.Image, int) (*imgcore.Image, error)
	}{
		{"minimum", filtering.Minimum},
		{"median", filtering.Median},
		{"maximum", filtering.Maximum},
	} {
		filtered, err := f.apply(atk, 2)
		if err != nil {
			return err
		}
		mseAF, err := metrics.MSE(atk, filtered)
		if err != nil {
			return err
		}
		down, err := evalCorpus.Scaler.Resize(filtered)
		if err != nil {
			return err
		}
		toTarget, err := metrics.SSIM(down, tgt)
		if err != nil {
			return err
		}
		toBenign, err := metrics.SSIM(down, benignDown)
		if err != nil {
			return err
		}
		tbl.AddRow(f.name, report.F(mseAF, 1), report.F(toTarget, 3), report.F(toBenign, 3))
		if err := r.saveArtifact("f4_"+f.name+".png", filtered); err != nil {
			return err
		}
	}
	return tbl.Render(r.cfg.Out)
}

// runF6 reproduces Figures 6/7: the centered spectrum of a benign vs an
// attack image, with binary masks and CSP counts.
func (r *Runner) runF6(ctx context.Context) error {
	evalCorpus, err := r.Eval(ctx)
	if err != nil {
		return err
	}
	tbl := report.NewTable("Centered spectrum points (paper Figures 6-7)",
		"Case", "CSP", "Component areas (largest first)")
	for _, c := range []struct {
		name string
		img  *imgcore.Image
	}{
		{"benign", evalCorpus.Benign[0]},
		{"attack", evalCorpus.Attacks[0]},
	} {
		a, err := steg.Analyze(c.img, steg.Options{})
		if err != nil {
			return err
		}
		tbl.AddRow(c.name, fmt.Sprintf("%d", a.Count), fmt.Sprintf("%v", a.Areas))
		if err := r.saveArtifact("f6_"+c.name+"_spectrum.png", a.SpectrumImage()); err != nil {
			return err
		}
		if err := r.saveArtifact("f6_"+c.name+"_mask.png", a.MaskImage()); err != nil {
			return err
		}
	}
	return tbl.Render(r.cfg.Out)
}

// runF8 reproduces Figure 8: the accuracy-vs-candidate-threshold curve of
// the white-box search for the scaling/MSE method.
func (r *Runner) runF8(ctx context.Context) error {
	scorer, err := r.scalingScorer(detect.MSE)
	if err != nil {
		return err
	}
	train, err := r.Train(ctx)
	if err != nil {
		return err
	}
	wb, _, _, err := calibrateScorer(ctx, scorer, train)
	if err != nil {
		return err
	}
	// Downsample the curve to ~25 rows for terminal output.
	step := len(wb.Curve)/25 + 1
	tbl := report.NewTable(
		fmt.Sprintf("Threshold selection curve, scaling/MSE (paper Figure 8; best=%.2f acc=%s)",
			wb.Threshold.Value, report.Pct(wb.TrainAccuracy)),
		"Candidate threshold", "Training accuracy")
	for i := 0; i < len(wb.Curve); i += step {
		p := wb.Curve[i]
		tbl.AddRow(report.F(p.Threshold, 2), report.Pct(p.Accuracy))
	}
	if err := tbl.Render(r.cfg.Out); err != nil {
		return err
	}
	return r.writeCSV("f8_threshold_curve.csv", func(w io.Writer) error {
		xs := make([]float64, len(wb.Curve))
		ys := make([]float64, len(wb.Curve))
		for i, p := range wb.Curve {
			xs[i], ys[i] = p.Threshold, p.Accuracy
		}
		return report.WriteCSV(w, []string{"threshold", "accuracy"}, xs, ys)
	})
}

// distributionFigure renders benign-vs-attack histograms for a scorer on
// the training corpus (the paper's white-box distribution figures).
func (r *Runner) distributionFigure(ctx context.Context, id, title string, mkScorer func(detect.Metric) (detect.Scorer, error)) error {
	train, err := r.Train(ctx)
	if err != nil {
		return err
	}
	for _, m := range []detect.Metric{detect.MSE, detect.SSIM} {
		scorer, err := mkScorer(m)
		if err != nil {
			return err
		}
		wb, benign, attacks, err := calibrateScorer(ctx, scorer, train)
		if err != nil {
			return err
		}
		err = report.RenderHistogram(r.cfg.Out,
			fmt.Sprintf("%s — %s (threshold %.2f)", title, m, wb.Threshold.Value),
			"benign", benign, "attack", attacks,
			report.HistogramOptions{Markers: map[string]float64{"threshold": wb.Threshold.Value}})
		if err != nil {
			return err
		}
		mName := m.String()
		if err := r.writeCSV(fmt.Sprintf("%s_%s.csv", id, mName), func(w io.Writer) error {
			return report.WriteCSV(w, []string{"benign_" + mName, "attack_" + mName}, benign, attacks)
		}); err != nil {
			return err
		}
	}
	return nil
}

// percentileFigure renders benign-only histograms with the 1/2/3 percentile
// markers (the paper's black-box distribution figures).
func (r *Runner) percentileFigure(ctx context.Context, id, title string, mkScorer func(detect.Metric) (detect.Scorer, error)) error {
	train, err := r.Train(ctx)
	if err != nil {
		return err
	}
	for _, m := range []detect.Metric{detect.MSE, detect.SSIM} {
		scorer, err := mkScorer(m)
		if err != nil {
			return err
		}
		benign, err := eval.Scores(ctx, scorer, train.Benign)
		if err != nil {
			return err
		}
		markers := make(map[string]float64, 3)
		for _, p := range []float64{1, 2, 3} {
			th, err := detect.CalibrateBlackBox(benign, p, m.AttackDirection())
			if err != nil {
				return err
			}
			markers[fmt.Sprintf("p%.0f", p)] = th.Value
		}
		mean, std := stats.MeanStd(benign)
		err = report.RenderHistogram(r.cfg.Out,
			fmt.Sprintf("%s — %s (benign only; mean %.2f std %.2f)", title, m, mean, std),
			"benign", benign, "", nil,
			report.HistogramOptions{Markers: markers})
		if err != nil {
			return err
		}
		mName := m.String()
		if err := r.writeCSV(fmt.Sprintf("%s_%s.csv", id, mName), func(w io.Writer) error {
			return report.WriteCSV(w, []string{"benign_" + mName}, benign)
		}); err != nil {
			return err
		}
	}
	return nil
}

// runF9 reproduces Figure 9 (scaling white-box distributions).
func (r *Runner) runF9(ctx context.Context) error {
	return r.distributionFigure(ctx, "f9", "Scaling detection distributions, white-box (paper Figure 9)", r.scalingScorer)
}

// runF10 reproduces Figure 10 (scaling black-box benign distributions).
func (r *Runner) runF10(ctx context.Context) error {
	return r.percentileFigure(ctx, "f10", "Scaling detection, black-box (paper Figure 10)", r.scalingScorer)
}

// runF11 reproduces Figure 11 (filtering white-box distributions).
func (r *Runner) runF11(ctx context.Context) error {
	return r.distributionFigure(ctx, "f11", "Filtering detection distributions, white-box (paper Figure 11)", r.filteringScorer)
}

// runF12 reproduces Figure 12 (filtering black-box benign distributions).
func (r *Runner) runF12(ctx context.Context) error {
	return r.percentileFigure(ctx, "f12", "Filtering detection, black-box (paper Figure 12)", r.filteringScorer)
}

// runF13 reproduces Figure 13: the CSP count distributions, including the
// paper's headline fractions (99.3% of benign have CSP=1; 98.2% of attacks
// have CSP>1).
func (r *Runner) runF13(ctx context.Context) error {
	evalCorpus, err := r.Eval(ctx)
	if err != nil {
		return err
	}
	scorer := detect.NewStegScorer(steg.Options{})
	benign, attacks, err := eval.ScorePair(ctx, scorer, evalCorpus)
	if err != nil {
		return err
	}
	count := func(xs []float64, pred func(float64) bool) int {
		n := 0
		for _, x := range xs {
			if pred(x) {
				n++
			}
		}
		return n
	}
	nb, na := float64(len(benign)), float64(len(attacks))
	tbl := report.NewTable("CSP distributions (paper Figure 13)", "Population", "CSP = 1 (or 0)", "CSP >= 2")
	tbl.AddRow("benign",
		report.Pct(float64(count(benign, func(x float64) bool { return x <= 1 }))/nb),
		report.Pct(float64(count(benign, func(x float64) bool { return x >= 2 }))/nb))
	tbl.AddRow("attack",
		report.Pct(float64(count(attacks, func(x float64) bool { return x <= 1 }))/na),
		report.Pct(float64(count(attacks, func(x float64) bool { return x >= 2 }))/na))
	if err := tbl.Render(r.cfg.Out); err != nil {
		return err
	}
	if err := report.RenderHistogram(r.cfg.Out, "CSP counts", "benign", benign, "attack", attacks,
		report.HistogramOptions{Bins: 12}); err != nil {
		return err
	}
	return r.writeCSV("f13_csp.csv", func(w io.Writer) error {
		return report.WriteCSV(w, []string{"benign_csp", "attack_csp"}, benign, attacks)
	})
}

// psnrFigure renders the Appendix-A PSNR histograms for one method and
// reports the distribution overlap coefficient — the quantitative form of
// "highly overlapped".
func (r *Runner) psnrFigure(ctx context.Context, id, title string, mkScorer func(detect.Metric) (detect.Scorer, error)) error {
	scorer, err := mkScorer(detect.PSNR)
	if err != nil {
		return err
	}
	train, err := r.Train(ctx)
	if err != nil {
		return err
	}
	benign, attacks, err := eval.ScorePair(ctx, scorer, train)
	if err != nil {
		return err
	}
	overlap, err := stats.OverlapCoefficient(benign, attacks, 30)
	if err != nil {
		return err
	}
	// Compare with MSE overlap on the same corpus to show the contrast.
	mseScorer, err := mkScorer(detect.MSE)
	if err != nil {
		return err
	}
	mb, ma, err := eval.ScorePair(ctx, mseScorer, train)
	if err != nil {
		return err
	}
	mseOverlap, err := stats.OverlapCoefficient(mb, ma, 30)
	if err != nil {
		return err
	}
	if err := report.RenderHistogram(r.cfg.Out,
		fmt.Sprintf("%s (overlap coefficient %.2f vs MSE overlap %.2f)", title, overlap, mseOverlap),
		"benign", benign, "attack", attacks, report.HistogramOptions{}); err != nil {
		return err
	}
	return r.writeCSV(id+"_psnr.csv", func(w io.Writer) error {
		return report.WriteCSV(w, []string{"benign_psnr", "attack_psnr"}, benign, attacks)
	})
}

// runF14 reproduces Figure 14: PSNR is not separable for the scaling method.
func (r *Runner) runF14(ctx context.Context) error {
	return r.psnrFigure(ctx, "f14", "PSNR histograms, scaling method (paper Figure 14)", r.scalingScorer)
}

// runF15 reproduces Figure 15: PSNR is not separable for the filtering
// method.
func (r *Runner) runF15(ctx context.Context) error {
	return r.psnrFigure(ctx, "f15", "PSNR histograms, filtering method (paper Figure 15)", r.filteringScorer)
}
