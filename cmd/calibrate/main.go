// Command calibrate selects Decamouflage decision thresholds and writes
// them as a calibration JSON consumable by cmd/decamouflage.
//
// In white-box mode it synthesizes benign+attack corpora (or loads a benign
// directory and crafts attacks from it) and picks optimal thresholds; in
// black-box mode it needs benign images only and uses the paper's
// percentile rule.
//
// Usage:
//
//	calibrate -mode whitebox -n 200 -src 128x128 -dst 32x32 -out cal.json
//	calibrate -mode blackbox -benign-dir ./photos -dst 224x224 -out cal.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"decamouflage/internal/attack"
	"decamouflage/internal/cliutil"
	"decamouflage/internal/dataset"
	"decamouflage/internal/detect"
	"decamouflage/internal/eval"
	"decamouflage/internal/imgcore"
	"decamouflage/internal/scaling"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("calibrate", flag.ContinueOnError)
	var (
		mode       = fs.String("mode", "whitebox", "whitebox (benign+attack) or blackbox (benign only)")
		n          = fs.Int("n", 200, "corpus size")
		src        = fs.String("src", "128x128", "source geometry WxH (synthetic corpora)")
		dst        = fs.String("dst", "32x32", "model input geometry WxH")
		alg        = fs.String("alg", "bilinear", "scaling algorithm")
		eps        = fs.Float64("eps", 2, "attack budget (whitebox)")
		percentile = fs.Float64("percentile", 1, "benign percentile (blackbox)")
		benignDir  = fs.String("benign-dir", "", "directory of real benign images (instead of synthetic)")
		seed       = fs.Int64("seed", 1, "synthetic corpus seed")
		out        = fs.String("out", "calibration.json", "output JSON path")
		systemOut  = fs.String("system-out", "", "also write a full system config (geometry+kernel+thresholds) consumable by detect.BuildSystem")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	dstW, dstH, err := cliutil.ParseSize(*dst)
	if err != nil {
		return err
	}
	algorithm, err := scaling.ParseAlgorithm(*alg)
	if err != nil {
		return err
	}
	ctx := context.Background()

	var benign []*imgcore.Image
	srcW, srcH, err := cliutil.ParseSize(*src)
	if err != nil {
		return err
	}
	if *benignDir != "" {
		benign, err = imgcore.LoadDir(*benignDir, *n)
		if err != nil {
			return err
		}
		if len(benign) == 0 {
			return fmt.Errorf("no images found in %s", *benignDir)
		}
		srcW, srcH = benign[0].W, benign[0].H
		for i, b := range benign {
			if b.W != srcW || b.H != srcH {
				return fmt.Errorf("image %d is %dx%d; calibration needs a uniform size (%dx%d)", i, b.W, b.H, srcW, srcH)
			}
		}
	} else {
		g, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.NeurIPSLike, W: srcW, H: srcH, C: 3, Seed: *seed})
		if err != nil {
			return err
		}
		benign = g.Batch(*n)
	}
	scaler, err := scaling.NewScaler(srcW, srcH, dstW, dstH, scaling.Options{Algorithm: algorithm})
	if err != nil {
		return err
	}

	ss, err := detect.NewScalingScorer(scaler, detect.MSE)
	if err != nil {
		return err
	}
	fsc, err := detect.NewFilteringScorer(2, detect.SSIM)
	if err != nil {
		return err
	}

	cal := detect.NewCalibration(*mode)
	switch *mode {
	case "blackbox":
		for _, pair := range []struct {
			name   string
			scorer detect.Scorer
			metric detect.Metric
		}{
			{"scaling/MSE", ss, detect.MSE},
			{"filtering/SSIM", fsc, detect.SSIM},
		} {
			scores, err := detect.Scores(pair.scorer, benign)
			if err != nil {
				return err
			}
			th, err := detect.CalibrateBlackBox(scores, *percentile, pair.metric.AttackDirection())
			if err != nil {
				return err
			}
			cal.Set(pair.name, th)
			fmt.Printf("%-16s threshold %.4f (%v, %.0f%% percentile)\n", pair.name, th.Value, th.Direction, *percentile)
		}
	case "whitebox":
		// Craft attacks from the benign images.
		tg, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.NeurIPSLike, W: dstW, H: dstH, C: 3, Seed: *seed + 1})
		if err != nil {
			return err
		}
		attacks := make([]*imgcore.Image, len(benign))
		for i, b := range benign {
			if err := ctx.Err(); err != nil {
				return err
			}
			res, err := attack.Craft(b, tg.Image(i), attack.Config{Scaler: scaler, Eps: *eps})
			if err != nil {
				return fmt.Errorf("crafting attack %d: %w", i, err)
			}
			attacks[i] = res.Attack
		}
		corpus := &eval.Corpus{Benign: benign, Attacks: attacks, Scaler: scaler}
		for _, pair := range []struct {
			name   string
			scorer detect.Scorer
		}{
			{"scaling/MSE", ss},
			{"filtering/SSIM", fsc},
		} {
			b, a, err := eval.ScorePair(ctx, pair.scorer, corpus)
			if err != nil {
				return err
			}
			wb, err := detect.CalibrateWhiteBox(b, a)
			if err != nil {
				return err
			}
			cal.Set(pair.name, wb.Threshold)
			fmt.Printf("%-16s threshold %.4f (%v, train acc %.1f%%)\n",
				pair.name, wb.Threshold.Value, wb.Threshold.Direction, wb.TrainAccuracy*100)
		}
	default:
		return fmt.Errorf("unknown mode %q (whitebox|blackbox)", *mode)
	}
	cal.Set("steganalysis/CSP", detect.DefaultCSPThreshold())
	if err := cliutil.SaveCalibration(*out, cal); err != nil {
		return err
	}
	fmt.Printf("calibration written to %s\n", *out)

	if *systemOut != "" {
		sys := &detect.SystemConfig{
			DstW: dstW, DstH: dstH,
			Algorithm:  algorithm.String(),
			Thresholds: cal.Thresholds,
		}
		data, err := detect.MarshalSystemConfig(sys)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*systemOut, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("writing system config: %w", err)
		}
		fmt.Printf("system config written to %s\n", *systemOut)
	}
	return nil
}
