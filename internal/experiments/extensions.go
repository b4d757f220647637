package experiments

import (
	"context"
	"fmt"

	"decamouflage/internal/attack"
	"decamouflage/internal/dataset"
	"decamouflage/internal/defense"
	"decamouflage/internal/eval"
	"decamouflage/internal/metrics"
	"decamouflage/internal/report"
	"decamouflage/internal/scaling"
	"decamouflage/internal/steg"
)

// extensionN caps the per-cell corpus size of the sweep experiments, which
// build many corpora.
func (r *Runner) extensionN() int {
	n := r.cfg.N / 4
	if n < 10 {
		n = 10
	}
	if n > 100 {
		n = 100
	}
	return n
}

// runX1 evaluates detection robustness when the attacker targets a
// DIFFERENT kernel than the defender uses (the black-box kernel threat).
func (r *Runner) runX1(ctx context.Context) error {
	kernels := []scaling.Algorithm{scaling.Nearest, scaling.Bilinear, scaling.Bicubic}
	n := r.extensionN()
	tbl := report.NewTable(
		fmt.Sprintf("Cross-kernel ensemble accuracy (attack kernel vs defense kernel, N=%d per cell; "+
			"'fn' = fraction of attacks still functional under the defender's kernel)", n),
		"Attack \\ Defense", kernels[0].String(), kernels[1].String(), kernels[2].String())
	for _, atkAlg := range kernels {
		row := []string{atkAlg.String()}
		for _, defAlg := range kernels {
			if err := ctx.Err(); err != nil {
				return err
			}
			spec := r.spec(dataset.CaltechLike, r.cfg.Seed+int64(atkAlg)*31+int64(defAlg)*17)
			spec.N = n
			spec.Algorithm, spec.AttackAlgorithm = defAlg, atkAlg
			corpus, err := eval.BuildCorpus(ctx, spec)
			if err != nil {
				return err
			}
			// How many cross-kernel attacks even function against the
			// defender's scaler? Off-diagonal attacks usually target the
			// wrong pixels and die on their own.
			functional := 0
			for i, a := range corpus.Attacks {
				rep, err := attack.Success(a, corpus.Targets[i], corpus.Scaler)
				if err != nil {
					return err
				}
				if rep.Effective {
					functional++
				}
			}
			// Calibrate black-box (benign-only) on a matching train slice:
			// the defender never sees the attack kernel.
			trainSpec := spec
			trainSpec.Corpus = dataset.NeurIPSLike
			trainSpec.Seed += 555
			train, err := eval.BuildCorpus(ctx, trainSpec)
			if err != nil {
				return err
			}
			bb, err := eval.CalibrateBlackBox(ctx, train, 1)
			if err != nil {
				return err
			}
			e, err := ensembleOn(train, bb)
			if err != nil {
				return err
			}
			cs, _, err := eval.EvaluateEnsemble(ctx, e, corpus)
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%s fn=%d/%d", report.Pct(cs.Accuracy()), functional, n))
		}
		tbl.AddRow(row...)
	}
	return tbl.Render(r.cfg.Out)
}

// runX2 sweeps the attacker's ε budget: larger ε makes the attack easier
// to solve but leaves the same comb signature; smaller ε forces exact
// embedding. Detection should hold across the sweep.
func (r *Runner) runX2(ctx context.Context) error {
	n := r.extensionN()
	tbl := report.NewTable(
		fmt.Sprintf("Attack ε sweep (N=%d per cell)", n),
		"ε", "Attack L∞ ok", "Perturb. MSE", "Ensemble Acc.", "FAR", "FRR")
	train, bb, err := r.TrainBlackBox(ctx)
	if err != nil {
		return err
	}
	e, err := ensembleOn(train, bb)
	if err != nil {
		return err
	}
	for _, eps := range []float64{1, 2, 4, 8} {
		if err := ctx.Err(); err != nil {
			return err
		}
		spec := r.spec(dataset.CaltechLike, r.cfg.Seed+900+int64(eps*10))
		spec.N, spec.Eps = n, eps
		corpus, err := eval.BuildCorpus(ctx, spec)
		if err != nil {
			return err
		}
		// Attack quality: worst L∞ across the corpus.
		okCount := 0
		var perturb float64
		for i, a := range corpus.Attacks {
			down, err := corpus.Scaler.Resize(a)
			if err != nil {
				return err
			}
			var linf float64
			for j := range down.Pix {
				if d := abs(down.Pix[j] - corpus.Targets[i].Pix[j]); d > linf {
					linf = d
				}
			}
			if linf <= eps+0.6 {
				okCount++
			}
			m, err := metrics.MSE(a, corpus.Benign[i])
			if err != nil {
				return err
			}
			perturb += m
		}
		perturb /= float64(len(corpus.Attacks))
		cs, _, err := eval.EvaluateEnsemble(ctx, e, corpus)
		if err != nil {
			return err
		}
		tbl.AddRow(report.F(eps, 1),
			fmt.Sprintf("%d/%d", okCount, len(corpus.Attacks)),
			report.F(perturb, 1),
			report.Pct(cs.Accuracy()), report.Pct(cs.FAR()), report.Pct(cs.FRR()))
	}
	return tbl.Render(r.cfg.Out)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// runX3 sweeps the CSP parameters the paper leaves unspecified, reporting
// the benign-single-point rate and attack-multi-point rate for each cell.
func (r *Runner) runX3(ctx context.Context) error {
	evalCorpus, err := r.Eval(ctx)
	if err != nil {
		return err
	}
	n := len(evalCorpus.Benign)
	if n > r.extensionN() {
		n = r.extensionN()
	}
	tbl := report.NewTable(
		fmt.Sprintf("CSP parameter sensitivity (N=%d)", n),
		"Binarize", "MinArea", "benign CSP<=1", "attack CSP>=2")
	for _, th := range []float64{0.70, 0.74, 0.78, 0.82} {
		for _, area := range []int{5, 10, 20} {
			if err := ctx.Err(); err != nil {
				return err
			}
			opts := steg.Options{BinarizeThreshold: th, MinArea: area}
			benignOK, attackOK := 0, 0
			for i := 0; i < n; i++ {
				cb, err := steg.CSP(evalCorpus.Benign[i], opts)
				if err != nil {
					return err
				}
				if cb <= 1 {
					benignOK++
				}
				ca, err := steg.CSP(evalCorpus.Attacks[i], opts)
				if err != nil {
					return err
				}
				if ca >= 2 {
					attackOK++
				}
			}
			tbl.AddRow(report.F(th, 2), fmt.Sprintf("%d", area),
				fmt.Sprintf("%d/%d", benignOK, n), fmt.Sprintf("%d/%d", attackOK, n))
		}
	}
	return tbl.Render(r.cfg.Out)
}

// runX4 compares Decamouflage (detection) with Quiring et al.'s prevention
// baselines on the same attacks: does the defense neutralize the attack,
// and at what benign-quality cost?
func (r *Runner) runX4(ctx context.Context) error {
	evalCorpus, err := r.Eval(ctx)
	if err != nil {
		return err
	}
	n := len(evalCorpus.Benign)
	if n > r.extensionN() {
		n = r.extensionN()
	}
	robust, err := defense.RobustScaler(evalCorpus.Scaler)
	if err != nil {
		return err
	}
	neutralizedRobust, neutralizedRecon := 0, 0
	var benignCostRecon float64
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		atk := evalCorpus.Attacks[i]
		tgt := evalCorpus.Targets[i]
		src := evalCorpus.Benign[i]

		// Robust scaling: does the area-scaled attack still hit the target?
		rep, err := attack.Success(atk, tgt, robust)
		if err != nil {
			return err
		}
		if !rep.Effective {
			neutralizedRobust++
		}
		// Reconstruction defense.
		cleaned, err := defense.MedianReconstruct(atk, evalCorpus.Scaler, 0)
		if err != nil {
			return err
		}
		rep, err = attack.Success(cleaned, tgt, evalCorpus.Scaler)
		if err != nil {
			return err
		}
		if !rep.Effective {
			neutralizedRecon++
		}
		// Benign-quality cost of reconstruction.
		cleanedBenign, err := defense.MedianReconstruct(src, evalCorpus.Scaler, 0)
		if err != nil {
			return err
		}
		m, err := metrics.MSE(cleanedBenign, src)
		if err != nil {
			return err
		}
		benignCostRecon += m
	}
	benignCostRecon /= float64(n)

	// Decamouflage detection on the same subset.
	train, bb, err := r.TrainBlackBox(ctx)
	if err != nil {
		return err
	}
	e, err := ensembleOn(train, bb)
	if err != nil {
		return err
	}
	sub := &eval.Corpus{
		Benign:  evalCorpus.Benign[:n],
		Attacks: evalCorpus.Attacks[:n],
		Targets: evalCorpus.Targets[:n],
		Scaler:  evalCorpus.Scaler,
	}
	cs, _, err := eval.EvaluateEnsemble(ctx, e, sub)
	if err != nil {
		return err
	}

	tbl := report.NewTable(
		fmt.Sprintf("Detection vs prevention (N=%d; paper Sections I and VI)", n),
		"Defense", "Attacks neutralized/detected", "Benign cost (MSE)")
	tbl.AddRow("Robust scaling (area)", fmt.Sprintf("%d/%d", neutralizedRobust, n), "0.0 (none)")
	tbl.AddRow("Median reconstruction", fmt.Sprintf("%d/%d", neutralizedRecon, n), report.F(benignCostRecon, 1))
	tbl.AddRow("Decamouflage (detect, black-box)",
		fmt.Sprintf("%d/%d", cs.TP, n),
		"0.0 (input unmodified)")
	return tbl.Render(r.cfg.Out)
}
