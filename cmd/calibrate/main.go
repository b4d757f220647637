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

	corpus := &eval.Corpus{Benign: benign, Scaler: scaler}
	var (
		methods []eval.MethodThreshold
		note    func(eval.MethodThreshold) string
	)
	switch *mode {
	case "blackbox":
		methods, err = eval.CalibrateBlackBox(ctx, corpus, *percentile)
		note = func(eval.MethodThreshold) string { return fmt.Sprintf("%.0f%% percentile", *percentile) }
	case "whitebox":
		if corpus.Attacks, err = craftAttacks(ctx, benign, scaler, *seed+1, *eps); err != nil {
			return err
		}
		methods, err = eval.CalibrateWhiteBox(ctx, corpus)
		note = func(m eval.MethodThreshold) string { return fmt.Sprintf("train acc %.1f%%", m.TrainAccuracy*100) }
	default:
		return fmt.Errorf("unknown mode %q (whitebox|blackbox)", *mode)
	}
	if err != nil {
		return err
	}
	cal := detect.NewCalibration(*mode)
	for _, m := range methods {
		cal.Set(m.Name, m.Threshold)
		fmt.Printf("%-16s threshold %.4f (%v, %s)\n", m.Name, m.Threshold.Value, m.Threshold.Direction, note(m))
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

// craftAttacks crafts one attack per benign image, serially, with targets
// from a NeurIPS-like generator at the scaler's output size.
func craftAttacks(ctx context.Context, benign []*imgcore.Image, scaler *scaling.Scaler, seed int64, eps float64) ([]*imgcore.Image, error) {
	dstW, dstH := scaler.DstSize()
	tg, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.NeurIPSLike, W: dstW, H: dstH, C: 3, Seed: seed})
	if err != nil {
		return nil, err
	}
	attacks := make([]*imgcore.Image, len(benign))
	for i, b := range benign {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := attack.Craft(b, tg.Image(i), attack.Config{Scaler: scaler, Eps: eps})
		if err != nil {
			return nil, fmt.Errorf("crafting attack %d: %w", i, err)
		}
		attacks[i] = res.Attack
	}
	return attacks, nil
}
