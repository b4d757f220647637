package experiments

import (
	"context"
	"fmt"

	"decamouflage/internal/attack"
	"decamouflage/internal/detect"
	"decamouflage/internal/eval"
	"decamouflage/internal/report"
	"decamouflage/internal/stats"
	"decamouflage/internal/steg"
)

func statsCells(cs eval.ConfusionStats) []string {
	return []string{
		report.Pct(cs.Accuracy()), report.Pct(cs.Precision()), report.Pct(cs.Recall()),
		report.Pct(cs.FAR()), report.Pct(cs.FRR()),
	}
}

// runT1 prints the paper's Table 1 (CNN input sizes). The table is static,
// so the uniform runner ctx is deliberately unused.
func (r *Runner) runT1(_ context.Context) error {
	tbl := report.NewTable("Input sizes for popular CNN models (paper Table 1)", "Model", "Size (pixels)")
	for _, m := range detect.ModelInputSizes() {
		tbl.AddRow(m.Model, fmt.Sprintf("%d * %d", m.W, m.H))
	}
	return tbl.Render(r.cfg.Out)
}

// whiteBoxTable runs the shared white-box protocol for one method: it
// calibrates MSE and SSIM thresholds on the training corpus and evaluates
// them on the evaluation corpus.
func (r *Runner) whiteBoxTable(ctx context.Context, title string, mkScorer func(detect.Metric) (detect.Scorer, error)) error {
	train, err := r.Train(ctx)
	if err != nil {
		return err
	}
	evalCorpus, err := r.Eval(ctx)
	if err != nil {
		return err
	}
	tbl := report.NewTable(title, "Metric", "Threshold", "Acc.", "Prec.", "Rec.", "FAR", "FRR")
	for _, m := range []detect.Metric{detect.MSE, detect.SSIM} {
		scorer, err := mkScorer(m)
		if err != nil {
			return err
		}
		wb, _, _, err := calibrateScorer(ctx, scorer, train)
		if err != nil {
			return err
		}
		benign, attacks, err := eval.ScorePair(ctx, scorer, evalCorpus)
		if err != nil {
			return err
		}
		cs := eval.EvaluateThreshold(wb.Threshold, benign, attacks)
		tbl.AddRow(append([]string{m.String(), report.F(wb.Threshold.Value, 2)}, statsCells(cs)...)...)
	}
	return tbl.Render(r.cfg.Out)
}

// blackBoxTable runs the shared black-box protocol: percentile thresholds
// from benign training scores only, evaluated on the evaluation corpus,
// with the benign distribution's mean and std (the paper's last columns).
func (r *Runner) blackBoxTable(ctx context.Context, title string, mkScorer func(detect.Metric) (detect.Scorer, error)) error {
	train, err := r.Train(ctx)
	if err != nil {
		return err
	}
	evalCorpus, err := r.Eval(ctx)
	if err != nil {
		return err
	}
	tbl := report.NewTable(title, "Metric", "Percentile", "Acc.", "Prec.", "Rec.", "FAR", "FRR", "Mean", "STD")
	for _, m := range []detect.Metric{detect.MSE, detect.SSIM} {
		scorer, err := mkScorer(m)
		if err != nil {
			return err
		}
		trainBenign, err := eval.Scores(ctx, scorer, train.Benign)
		if err != nil {
			return err
		}
		benign, attacks, err := eval.ScorePair(ctx, scorer, evalCorpus)
		if err != nil {
			return err
		}
		mean, std := stats.MeanStd(trainBenign)
		for _, p := range []float64{1, 2, 3} {
			th, err := detect.CalibrateBlackBox(trainBenign, p, m.AttackDirection())
			if err != nil {
				return err
			}
			cs := eval.EvaluateThreshold(th, benign, attacks)
			row := append([]string{m.String(), fmt.Sprintf("%.0f%%", p)}, statsCells(cs)...)
			//declint:ignore floateq the row key is an exact small-integer-valued float
			if p == 2 { // paper prints mean/std on the middle row
				row = append(row, report.F(mean, 2), report.F(std, 2))
			}
			tbl.AddRow(row...)
		}
	}
	return tbl.Render(r.cfg.Out)
}

func (r *Runner) scalingScorer(m detect.Metric) (detect.Scorer, error) {
	s, err := r.Scaler()
	if err != nil {
		return nil, err
	}
	return detect.NewScalingScorer(s, m)
}

func (r *Runner) filteringScorer(m detect.Metric) (detect.Scorer, error) {
	return detect.NewFilteringScorer(2, m)
}

// runT2 reproduces Table 2: scaling detection, white-box.
func (r *Runner) runT2(ctx context.Context) error {
	return r.whiteBoxTable(ctx, "Scaling detection, white-box (paper Table 2)", r.scalingScorer)
}

// runT3 reproduces Table 3: scaling detection, black-box.
func (r *Runner) runT3(ctx context.Context) error {
	return r.blackBoxTable(ctx, "Scaling detection, black-box (paper Table 3)", r.scalingScorer)
}

// runT4 reproduces Table 4: filtering detection, white-box.
func (r *Runner) runT4(ctx context.Context) error {
	return r.whiteBoxTable(ctx, "Filtering detection, white-box (paper Table 4)", r.filteringScorer)
}

// runT5 reproduces Table 5: filtering detection, black-box.
func (r *Runner) runT5(ctx context.Context) error {
	return r.blackBoxTable(ctx, "Filtering detection, black-box (paper Table 5)", r.filteringScorer)
}

// runT6 reproduces Table 6: steganalysis detection with the fixed CSP >= 2
// rule (identical in white-box and black-box settings, as the paper notes).
func (r *Runner) runT6(ctx context.Context) error {
	evalCorpus, err := r.Eval(ctx)
	if err != nil {
		return err
	}
	scorer := detect.NewStegScorer(steg.Options{})
	benign, attacks, err := eval.ScorePair(ctx, scorer, evalCorpus)
	if err != nil {
		return err
	}
	cs := eval.EvaluateThreshold(detect.DefaultCSPThreshold(), benign, attacks)
	tbl := report.NewTable("Steganalysis detection (paper Table 6; threshold CSP >= 2)",
		"Metric", "Acc.", "Prec.", "Rec.", "FAR", "FRR")
	tbl.AddRow(append([]string{"CSP"}, statsCells(cs)...)...)
	return tbl.Render(r.cfg.Out)
}

// runT7 reproduces Table 7: run-time overhead of each method/metric.
func (r *Runner) runT7(ctx context.Context) error {
	evalCorpus, err := r.Eval(ctx)
	if err != nil {
		return err
	}
	n := len(evalCorpus.Benign)
	if n > 50 {
		n = 50
	}
	imgs := evalCorpus.Benign[:n]
	type entry struct {
		method string
		metric string
		scorer detect.Scorer
	}
	var entries []entry
	for _, m := range []detect.Metric{detect.MSE, detect.SSIM} {
		ss, err := r.scalingScorer(m)
		if err != nil {
			return err
		}
		entries = append(entries, entry{"Scaling", m.String(), ss})
	}
	for _, m := range []detect.Metric{detect.MSE, detect.SSIM} {
		fs, err := r.filteringScorer(m)
		if err != nil {
			return err
		}
		entries = append(entries, entry{"Filtering", m.String(), fs})
	}
	entries = append(entries, entry{"Steganalysis", "CSP", detect.NewStegScorer(steg.Options{})})

	tbl := report.NewTable("Run-time overhead (paper Table 7)",
		"Method", "Metric", "Run-time (ms/image)", "Std dev (ms)")
	for _, e := range entries {
		if err := ctx.Err(); err != nil {
			return err
		}
		rs, err := eval.MeasureRuntime(e.scorer, imgs)
		if err != nil {
			return err
		}
		tbl.AddRow(e.method, e.metric, report.F(rs.MeanMillis, 2), report.F(rs.StdMillis, 2))
	}
	return tbl.Render(r.cfg.Out)
}

// runT8 reproduces Table 8: the majority-voting ensemble in both settings,
// calibrated on the training corpus.
func (r *Runner) runT8(ctx context.Context) error {
	train, bb, err := r.TrainBlackBox(ctx)
	if err != nil {
		return err
	}
	wb, err := eval.CalibrateWhiteBox(ctx, train)
	if err != nil {
		return err
	}
	evalCorpus, err := r.Eval(ctx)
	if err != nil {
		return err
	}
	tbl := report.NewTable("Decamouflage ensemble (paper Table 8)",
		"Setting", "Acc.", "Prec.", "Rec.", "FAR", "FRR")
	for _, row := range []struct {
		name    string
		methods []eval.MethodThreshold
	}{
		{"White-box ensemble", wb},
		{"Black-box ensemble", bb},
	} {
		e, err := ensembleOn(train, row.methods)
		if err != nil {
			return err
		}
		cs, _, err := eval.EvaluateEnsemble(ctx, e, evalCorpus)
		if err != nil {
			return err
		}
		tbl.AddRow(append([]string{row.name}, statsCells(cs)...)...)
	}
	return tbl.Render(r.cfg.Out)
}

// runT9 reproduces the paper's Table 9/Appendix-B analysis: attacks that
// escape the ensemble are checked against the attack-success oracle; the
// paper's finding is that escaped attacks have lost their effect.
func (r *Runner) runT9(ctx context.Context) error {
	train, err := r.Train(ctx)
	if err != nil {
		return err
	}
	wb, err := eval.CalibrateWhiteBox(ctx, train)
	if err != nil {
		return err
	}
	wbE, err := ensembleOn(train, wb)
	if err != nil {
		return err
	}
	evalCorpus, err := r.Eval(ctx)
	if err != nil {
		return err
	}
	escaped := 0
	stillEffective := 0
	for i, img := range evalCorpus.Attacks {
		if err := ctx.Err(); err != nil {
			return err
		}
		v, err := wbE.Detect(ctx, img)
		if err != nil {
			return err
		}
		if v.Attack {
			continue
		}
		escaped++
		rep, err := attack.Success(img, evalCorpus.Targets[i], evalCorpus.Scaler)
		if err != nil {
			return err
		}
		if rep.Effective {
			stillEffective++
		}
		r.printf("  escaped attack %d: downscale SSIM to target %.3f, L-inf %.1f, still effective: %v\n",
			i, rep.SSIM, rep.LInf, rep.Effective)
	}
	tbl := report.NewTable("Escaped-attack efficacy (paper Table 9 substitute oracle)",
		"Attacks", "Escaped ensemble", "Still effective")
	tbl.AddRow(fmt.Sprintf("%d", len(evalCorpus.Attacks)), fmt.Sprintf("%d", escaped), fmt.Sprintf("%d", stillEffective))
	if err := tbl.Render(r.cfg.Out); err != nil {
		return err
	}
	if escaped == 0 {
		r.printf("  (no attacks escaped at this corpus size; the paper's FAR is 0.2%% at N=1000)\n\n")
	}
	return nil
}
