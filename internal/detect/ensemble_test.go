package detect

import (
	"context"
	"errors"
	"testing"

	"decamouflage/internal/attack"
	"decamouflage/internal/dataset"
	"decamouflage/internal/imgcore"
)

func TestNewEnsembleValidation(t *testing.T) {
	if _, err := NewEnsemble(); err == nil {
		t.Error("empty ensemble accepted")
	}
	if _, err := NewEnsemble(nil); err == nil {
		t.Error("nil detector accepted")
	}
}

func TestEnsembleMajorityVote(t *testing.T) {
	tests := []struct {
		name  string
		votes []bool
		want  bool
	}{
		{"all attack", []bool{true, true, true}, true},
		{"two of three", []bool{true, true, false}, true},
		{"one of three", []bool{true, false, false}, false},
		{"none", []bool{false, false, false}, false},
		{"tie breaks benign", []bool{true, false}, false},
		{"single attack", []bool{true}, true},
	}
	img := imgcore.MustNew(8, 8, 1)
	img.Fill(100)
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var ds []*Detector
			for i, v := range tt.votes {
				ds = append(ds, stubDetector(t, "stub", float64(i), v))
			}
			e, err := NewEnsemble(ds...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Detect(context.Background(), img)
			if err != nil {
				t.Fatal(err)
			}
			if got.Attack != tt.want {
				t.Errorf("Attack = %v, want %v (votes %d)", got.Attack, tt.want, got.Votes)
			}
			wantVotes := 0
			for _, v := range tt.votes {
				if v {
					wantVotes++
				}
			}
			if got.Votes != wantVotes {
				t.Errorf("Votes = %d, want %d", got.Votes, wantVotes)
			}
			if len(got.Verdicts) != len(tt.votes) {
				t.Errorf("Verdicts len = %d", len(got.Verdicts))
			}
		})
	}
}

func TestEnsemblePropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	bad, err := NewDetector(&stubScorer{name: "bad", err: boom}, Threshold{1, Above})
	if err != nil {
		t.Fatal(err)
	}
	good := stubDetector(t, "good", 0, false)
	e, err := NewEnsemble(good, bad)
	if err != nil {
		t.Fatal(err)
	}
	img := imgcore.MustNew(4, 4, 1)
	img.Fill(1)
	if _, err := e.Detect(context.Background(), img); !errors.Is(err, boom) {
		t.Errorf("error not propagated: %v", err)
	}
}

func TestEnsembleContextCancellation(t *testing.T) {
	e, err := NewEnsemble(stubDetector(t, "a", 0, false))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	img := imgcore.MustNew(4, 4, 1)
	img.Fill(1)
	if _, err := e.Detect(ctx, img); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context not honoured: %v", err)
	}
}

func TestEnsembleRejectsInvalidImage(t *testing.T) {
	e, err := NewEnsemble(stubDetector(t, "a", 0, false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Detect(context.Background(), &imgcore.Image{}); err == nil {
		t.Error("empty image accepted")
	}
}

func TestEnsembleDetectorsAccessorIsCopy(t *testing.T) {
	d := stubDetector(t, "a", 0, false)
	e, err := NewEnsemble(d)
	if err != nil {
		t.Fatal(err)
	}
	got := e.Detectors()
	got[0] = nil
	if e.Detectors()[0] == nil {
		t.Error("Detectors() exposes internal slice")
	}
}

func TestBuildSystemDefaultEnsemble(t *testing.T) {
	if _, err := BuildSystem(&SystemConfig{}); err == nil {
		t.Error("missing model geometry accepted")
	}
	cfg := &SystemConfig{
		DstW: 16, DstH: 16, Algorithm: "bilinear",
		Thresholds: map[string]Threshold{
			"scaling/MSE":    {Value: 500, Direction: Above},
			"filtering/SSIM": {Value: 0.5, Direction: Below},
		},
	}
	e, err := BuildSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := e.Detectors()
	if len(ds) != 3 {
		t.Fatalf("default ensemble has %d detectors", len(ds))
	}
	names := map[string]bool{}
	for _, d := range ds {
		names[d.Name()] = true
	}
	for _, want := range []string{"scaling/MSE", "filtering/SSIM", "steganalysis/CSP"} {
		if !names[want] {
			t.Errorf("missing detector %q (have %v)", want, names)
		}
	}
	// Invalid thresholds propagate.
	cfg.Thresholds = map[string]Threshold{"scaling/MSE": {}, "filtering/SSIM": {}}
	if _, err := BuildSystem(cfg); err == nil {
		t.Error("zero thresholds accepted")
	}
}

// End-to-end: calibrate white-box on one corpus, detect on the other —
// the paper's central protocol, in miniature.
func TestEndToEndWhiteBoxPipeline(t *testing.T) {
	const (
		srcW, srcH = 128, 128
		dstW, dstH = 32, 32
		nTrain     = 8
		nEval      = 8
	)
	scaler := mustScaler(t, srcW, srcH, dstW, dstH)

	trainSrc, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.NeurIPSLike, W: srcW, H: srcH, C: 3, Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	trainTgt, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.NeurIPSLike, W: dstW, H: dstH, C: 3, Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	evalSrc, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.CaltechLike, W: srcW, H: srcH, C: 3, Seed: 200})
	if err != nil {
		t.Fatal(err)
	}
	evalTgt, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.CaltechLike, W: dstW, H: dstH, C: 3, Seed: 201})
	if err != nil {
		t.Fatal(err)
	}

	craft := func(g, tg *dataset.Generator, i int) *imgcore.Image {
		res, err := attack.Craft(g.Image(i), tg.Image(i), attack.Config{Scaler: scaler, Eps: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res.Attack
	}

	ss, err := NewScalingScorer(scaler, MSE)
	if err != nil {
		t.Fatal(err)
	}
	var trainBenign, trainAttack []float64
	for i := 0; i < nTrain; i++ {
		b, err := ss.Score(trainSrc.Image(i))
		if err != nil {
			t.Fatal(err)
		}
		a, err := ss.Score(craft(trainSrc, trainTgt, i))
		if err != nil {
			t.Fatal(err)
		}
		trainBenign = append(trainBenign, b)
		trainAttack = append(trainAttack, a)
	}
	wb, err := CalibrateWhiteBox(trainBenign, trainAttack)
	if err != nil {
		t.Fatal(err)
	}
	if wb.TrainAccuracy < 0.95 {
		t.Fatalf("train accuracy %v too low (benign %v attack %v)", wb.TrainAccuracy, trainBenign, trainAttack)
	}

	det, err := NewDetector(ss, wb.Threshold)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < nEval; i++ {
		v, err := det.Detect(evalSrc.Image(i))
		if err != nil {
			t.Fatal(err)
		}
		if !v.Attack {
			correct++
		}
		v, err = det.Detect(craft(evalSrc, evalTgt, i))
		if err != nil {
			t.Fatal(err)
		}
		if v.Attack {
			correct++
		}
	}
	acc := float64(correct) / float64(2*nEval)
	if acc < 0.9 {
		t.Errorf("cross-dataset accuracy = %v, want >= 0.9 (threshold transfer failed)", acc)
	}
}

// End-to-end ensemble on attack + benign images.
func TestEndToEndEnsemble(t *testing.T) {
	scaler := mustScaler(t, 128, 128, 32, 32)
	src, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.CaltechLike, W: 128, H: 128, C: 3, Seed: 300})
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.CaltechLike, W: 32, H: 32, C: 3, Seed: 301})
	if err != nil {
		t.Fatal(err)
	}
	// Calibrate scaling and filtering thresholds on a handful of images.
	ss, err := NewScalingScorer(scaler, MSE)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := NewFilteringScorer(2, SSIM)
	if err != nil {
		t.Fatal(err)
	}
	var sb, sa, fb, fa []float64
	for i := 0; i < 6; i++ {
		b := src.Image(i)
		res, err := attack.Craft(b, tgt.Image(i), attack.Config{Scaler: scaler, Eps: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []struct {
			sc   Scorer
			img  *imgcore.Image
			dest *[]float64
		}{
			{ss, b, &sb}, {ss, res.Attack, &sa}, {fs, b, &fb}, {fs, res.Attack, &fa},
		} {
			v, err := p.sc.Score(p.img)
			if err != nil {
				t.Fatal(err)
			}
			*p.dest = append(*p.dest, v)
		}
	}
	swb, err := CalibrateWhiteBox(sb, sa)
	if err != nil {
		t.Fatal(err)
	}
	fwb, err := CalibrateWhiteBox(fb, fa)
	if err != nil {
		t.Fatal(err)
	}
	e, err := BuildSystem(&SystemConfig{
		DstW: 32, DstH: 32, Algorithm: "bilinear",
		Thresholds: map[string]Threshold{
			"scaling/MSE":    swb.Threshold,
			"filtering/SSIM": fwb.Threshold,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	correct := 0
	const n = 5
	for i := 6; i < 6+n; i++ {
		b := src.Image(i)
		res, err := attack.Craft(b, tgt.Image(i), attack.Config{Scaler: scaler, Eps: 2})
		if err != nil {
			t.Fatal(err)
		}
		vb, err := e.Detect(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		if !vb.Attack {
			correct++
		}
		va, err := e.Detect(ctx, res.Attack)
		if err != nil {
			t.Fatal(err)
		}
		if va.Attack {
			correct++
		}
	}
	if correct < 2*n-1 {
		t.Errorf("ensemble correct %d/%d", correct, 2*n)
	}
}
