package detect

import (
	"context"
	"fmt"
	"math"
	"testing"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/metrics"
	"decamouflage/internal/steg"
)

// hostileGeometry are images no entry point may score: each must come
// back as an error, never as a panic or a value.
func hostileGeometry() map[string]*imgcore.Image {
	good := func() *imgcore.Image { return imgcore.MustNew(32, 32, 1) }
	short := good()
	short.Pix = short.Pix[:len(short.Pix)-1]
	twoChan := good()
	twoChan.C = 2
	negative := good()
	negative.W = -32
	return map[string]*imgcore.Image{
		"nil":       nil,
		"empty":     {},
		"short-pix": short,
		"channels":  twoChan,
		"negative":  negative,
	}
}

// hostileSamples are well-formed images carrying NaN or ±Inf samples.
func hostileSamples() map[string]*imgcore.Image {
	poison := func(v float64, all bool) *imgcore.Image {
		img := imgcore.MustNew(32, 32, 1)
		img.Fill(128)
		if all {
			img.Fill(v)
		} else {
			img.Pix[5*32+7] = v
		}
		return img
	}
	return map[string]*imgcore.Image{
		"one-nan":  poison(math.NaN(), false),
		"all-nan":  poison(math.NaN(), true),
		"one-+inf": poison(math.Inf(1), false),
		"one--inf": poison(math.Inf(-1), false),
	}
}

// tensorEntryPoints are the exported functions of metrics, steg and
// detect that accept an image tensor, each adapted to one image argument
// (pair metrics take the hostile image on either side against a clean
// reference). The string renders the result for failure messages.
func tensorEntryPoints(t *testing.T) map[string]func(*imgcore.Image) (string, error) {
	ctx := context.Background()
	clean := imgcore.MustNew(32, 32, 1)
	clean.Fill(128)
	ref, err := metrics.NewSSIMRef(ctx, clean, metrics.DefaultSSIM())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ref.Release)
	scaling, err := NewScalingScorer(mustScaler(t, 32, 32, 8, 8), MSE)
	if err != nil {
		t.Fatal(err)
	}
	filtering, err := NewFilteringScorer(2, SSIM)
	if err != nil {
		t.Fatal(err)
	}
	cspDet, err := NewDetector(NewStegScorer(steg.Options{}), Threshold{Value: 2, Direction: Above})
	if err != nil {
		t.Fatal(err)
	}
	ens, err := BuildSystem(&SystemConfig{DstW: 8, DstH: 8, Algorithm: "bilinear", Thresholds: map[string]Threshold{
		"scaling/MSE":      {Value: 100, Direction: Above},
		"filtering/SSIM":   {Value: 0.5, Direction: Below},
		"steganalysis/CSP": {Value: 2, Direction: Above},
	}})
	if err != nil {
		t.Fatal(err)
	}
	score := func(v float64, err error) (string, error) { return fmt.Sprint(v), err }
	pair := func(f func(a, b *imgcore.Image) (float64, error)) (func(*imgcore.Image) (string, error), func(*imgcore.Image) (string, error)) {
		return func(img *imgcore.Image) (string, error) { return score(f(img, clean)) },
			func(img *imgcore.Image) (string, error) { return score(f(clean, img)) }
	}
	ssimWith := func(a, b *imgcore.Image) (float64, error) { return metrics.SSIMWith(a, b, metrics.DefaultSSIM()) }
	out := map[string]func(*imgcore.Image) (string, error){
		"metrics.NewSSIMRef": func(img *imgcore.Image) (string, error) {
			r, err := metrics.NewSSIMRef(ctx, img, metrics.DefaultSSIM())
			if err != nil {
				return "", err
			}
			defer r.Release()
			return score(r.Score(clean))
		},
		"metrics.SSIMRef.Score":    func(img *imgcore.Image) (string, error) { return score(ref.Score(img)) },
		"metrics.SSIMRef.ScoreCtx": func(img *imgcore.Image) (string, error) { return score(ref.ScoreCtx(ctx, img)) },
		"steg.CSP": func(img *imgcore.Image) (string, error) {
			n, err := steg.CSP(img, steg.Options{})
			return fmt.Sprint(n), err
		},
		"steg.Analyze": func(img *imgcore.Image) (string, error) {
			a, err := steg.Analyze(img, steg.Options{})
			if err != nil {
				return "", err
			}
			return fmt.Sprint(a.Count), nil
		},
		"ScalingScorer.Score":   func(img *imgcore.Image) (string, error) { return score(scaling.Score(img)) },
		"FilteringScorer.Score": func(img *imgcore.Image) (string, error) { return score(filtering.Score(img)) },
		"StegScorer.Score":      func(img *imgcore.Image) (string, error) { return score(NewStegScorer(steg.Options{}).Score(img)) },
		"Detector.Detect": func(img *imgcore.Image) (string, error) {
			v, err := cspDet.Detect(img)
			return fmt.Sprint(v.Score, v.Attack), err
		},
		"Detector.DetectCtx": func(img *imgcore.Image) (string, error) {
			v, err := cspDet.DetectCtx(ctx, img)
			return fmt.Sprint(v.Score, v.Attack), err
		},
		"Ensemble.Detect": func(img *imgcore.Image) (string, error) {
			v, err := ens.Detect(ctx, img)
			if err != nil {
				return "", err
			}
			return fmt.Sprint(v.Votes, v.Attack), nil
		},
		"Ensemble.DetectBatch": func(img *imgcore.Image) (string, error) {
			vs, err := ens.DetectBatch(ctx, []*imgcore.Image{clean, img})
			if err != nil {
				return "", err
			}
			return fmt.Sprint(vs[1].Votes, vs[1].Attack), nil
		},
	}
	for name, f := range map[string]func(a, b *imgcore.Image) (float64, error){
		"metrics.MSE": metrics.MSE, "metrics.PSNR": metrics.PSNR,
		"metrics.SSIM": metrics.SSIM, "metrics.SSIMWith": ssimWith,
	} {
		out[name+"/a"], out[name+"/b"] = pair(f)
	}
	return out
}

// TestTensorEntryPointsHostileInput is the behavioural contract of every
// exported function in metrics, steg and detect that accepts an image
// tensor: malformed geometry is an error, and NaN/±Inf samples are scored
// without a panic or an error (NaN propagates to a metric's score, and a
// NaN score never votes attack). steg.EstimateTargetSize, which returns no
// error, must report ok=false on malformed geometry. The filtering/SSIM
// detector must score every non-finite input NaN. The histogram baseline,
// which lives in internal/experiments, is held to the same contract there.
func TestTensorEntryPointsHostileInput(t *testing.T) {
	call := func(f func(*imgcore.Image) (string, error), img *imgcore.Image) (res string, panicked any, err error) {
		defer func() { panicked = recover() }()
		res, err = f(img)
		return res, nil, err
	}
	for name, f := range tensorEntryPoints(t) {
		for in, img := range hostileGeometry() {
			res, p, err := call(f, img)
			switch {
			case p != nil:
				t.Errorf("%s(%s) panicked: %v", name, in, p)
			case err == nil:
				t.Errorf("%s(%s) = %s, want an error", name, in, res)
			}
		}
		for in, img := range hostileSamples() {
			if _, p, err := call(f, img); p != nil || err != nil {
				t.Errorf("%s(%s): panic %v, error %v; want a score", name, in, p, err)
			}
		}
	}
	estimate := func(img *imgcore.Image) (string, error) {
		w, h, ok := steg.EstimateTargetSize(img, steg.Options{})
		if ok {
			return fmt.Sprintf("%dx%d", w, h), nil
		}
		return "", fmt.Errorf("no estimate")
	}
	for in, img := range hostileGeometry() {
		if res, p, err := call(estimate, img); p != nil || err == nil {
			t.Errorf("steg.EstimateTargetSize(%s) = %s, panic %v; want ok=false", in, res, p)
		}
	}
	for in, img := range hostileSamples() {
		if _, p, _ := call(estimate, img); p != nil {
			t.Errorf("steg.EstimateTargetSize(%s) panicked: %v", in, p)
		}
	}
	filtering, err := NewFilteringScorer(2, SSIM)
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []Direction{Above, Below} {
		d, err := NewDetector(filtering, Threshold{Value: 0.5, Direction: dir})
		if err != nil {
			t.Fatal(err)
		}
		for in, img := range hostileSamples() {
			v, err := d.Detect(img)
			if err != nil || !math.IsNaN(v.Score) || v.Attack {
				t.Errorf("filtering/SSIM %v detector on %s = %+v, %v; want a benign NaN verdict", dir, in, v, err)
			}
		}
	}
}
