package decamouflage_test

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"decamouflage"
	"decamouflage/internal/dataset"
	"decamouflage/internal/scaling"
)

func genPair(t *testing.T, i int) (src, tgt *decamouflage.Image) {
	t.Helper()
	g, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.CaltechLike, W: 96, H: 96, C: 3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	tg, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.CaltechLike, W: 24, H: 24, C: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return g.Image(i), tg.Image(i)
}

func TestPublicQuickstartFlow(t *testing.T) {
	scaler, err := decamouflage.NewScaler(96, 96, 24, 24, decamouflage.Bilinear)
	if err != nil {
		t.Fatal(err)
	}
	src, tgt := genPair(t, 0)

	// Craft an attack through the public API.
	res, err := decamouflage.CraftAttack(src, tgt, scaler, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("attack did not converge: %+v", res)
	}

	// Steganalysis detector needs no calibration.
	det, err := decamouflage.NewSteganalysisDetector()
	if err != nil {
		t.Fatal(err)
	}
	vb, err := det.Detect(src)
	if err != nil {
		t.Fatal(err)
	}
	if vb.Attack {
		t.Errorf("benign flagged: %+v", vb)
	}
	va, err := det.Detect(res.Attack)
	if err != nil {
		t.Fatal(err)
	}
	if !va.Attack {
		t.Errorf("attack missed: %+v", va)
	}
}

func TestPublicCalibrationAndEnsemble(t *testing.T) {
	scaler, err := decamouflage.NewScaler(96, 96, 24, 24, decamouflage.Bilinear)
	if err != nil {
		t.Fatal(err)
	}
	var sb, sa, fb, fa []float64
	for i := 0; i < 5; i++ {
		src, tgt := genPair(t, i)
		res, err := decamouflage.CraftAttack(src, tgt, scaler, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := decamouflage.ScoreScaling(scaler, decamouflage.MSE, src)
		if err != nil {
			t.Fatal(err)
		}
		a, err := decamouflage.ScoreScaling(scaler, decamouflage.MSE, res.Attack)
		if err != nil {
			t.Fatal(err)
		}
		sb, sa = append(sb, b), append(sa, a)
		b, err = decamouflage.ScoreFiltering(2, decamouflage.SSIM, src)
		if err != nil {
			t.Fatal(err)
		}
		a, err = decamouflage.ScoreFiltering(2, decamouflage.SSIM, res.Attack)
		if err != nil {
			t.Fatal(err)
		}
		fb, fa = append(fb, b), append(fa, a)
	}
	sTh, acc, err := decamouflage.CalibrateWhiteBox(sb, sa)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Fatalf("white-box training accuracy %v", acc)
	}
	fTh, _, err := decamouflage.CalibrateWhiteBox(fb, fa)
	if err != nil {
		t.Fatal(err)
	}
	ens, err := decamouflage.NewEnsemble(scaler, sTh, fTh)
	if err != nil {
		t.Fatal(err)
	}
	src, tgt := genPair(t, 7)
	res, err := decamouflage.CraftAttack(src, tgt, scaler, 2)
	if err != nil {
		t.Fatal(err)
	}
	v, err := decamouflage.Detect(context.Background(), ens, res.Attack)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Attack {
		t.Errorf("ensemble missed attack: %+v", v)
	}
	v, err = decamouflage.Detect(context.Background(), ens, src)
	if err != nil {
		t.Fatal(err)
	}
	if v.Attack {
		t.Errorf("ensemble flagged benign: %+v", v)
	}
	if _, err := decamouflage.Detect(context.Background(), nil, src); err == nil {
		t.Error("nil ensemble accepted")
	}
}

// TestPublicNewEnsembleCanonical pins NewEnsemble's members and their
// order, and that it refuses a scaler whose options a SystemConfig
// cannot carry rather than dropping them.
func TestPublicNewEnsembleCanonical(t *testing.T) {
	sTh := decamouflage.Threshold{Value: 500, Direction: decamouflage.Above}
	fTh := decamouflage.Threshold{Value: 0.5, Direction: decamouflage.Below}
	scaler, err := decamouflage.NewScaler(96, 96, 24, 24, decamouflage.Bilinear)
	if err != nil {
		t.Fatal(err)
	}
	ens, err := decamouflage.NewEnsemble(scaler, sTh, fTh)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range ens.Detectors() {
		names = append(names, d.Name())
	}
	if got := strings.Join(names, ","); got != "scaling/MSE,filtering/SSIM,steganalysis/CSP" {
		t.Errorf("members = %s", got)
	}
	if _, err := decamouflage.NewEnsemble(nil, sTh, fTh); err == nil {
		t.Error("nil scaler accepted")
	}
	aa, err := scaling.NewScaler(96, 96, 24, 24, scaling.Options{Algorithm: scaling.Bilinear, Antialias: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decamouflage.NewEnsemble(aa, sTh, fTh); err == nil {
		t.Error("antialiased scaler accepted")
	}
}

func TestPublicDetectBatch(t *testing.T) {
	scaler, err := decamouflage.NewScaler(96, 96, 24, 24, decamouflage.Bilinear)
	if err != nil {
		t.Fatal(err)
	}
	// Steganalysis-only ensemble avoids calibration in this test.
	det, err := decamouflage.NewSteganalysisDetector()
	if err != nil {
		t.Fatal(err)
	}
	_ = det
	var sb, fb []float64
	for i := 0; i < 4; i++ {
		src, _ := genPair(t, i)
		v, err := decamouflage.ScoreScaling(scaler, decamouflage.MSE, src)
		if err != nil {
			t.Fatal(err)
		}
		sb = append(sb, v)
		v, err = decamouflage.ScoreFiltering(2, decamouflage.SSIM, src)
		if err != nil {
			t.Fatal(err)
		}
		fb = append(fb, v)
	}
	sTh, err := decamouflage.CalibrateBlackBox(sb, 10, decamouflage.MSE)
	if err != nil {
		t.Fatal(err)
	}
	fTh, err := decamouflage.CalibrateBlackBox(fb, 10, decamouflage.SSIM)
	if err != nil {
		t.Fatal(err)
	}
	ens, err := decamouflage.NewEnsemble(scaler, sTh, fTh)
	if err != nil {
		t.Fatal(err)
	}
	var imgs []*decamouflage.Image
	var wantAttack []bool
	for i := 4; i < 7; i++ {
		src, tgt := genPair(t, i)
		imgs = append(imgs, src)
		wantAttack = append(wantAttack, false)
		res, err := decamouflage.CraftAttack(src, tgt, scaler, 2)
		if err != nil {
			t.Fatal(err)
		}
		imgs = append(imgs, res.Attack)
		wantAttack = append(wantAttack, true)
	}
	verdicts, err := decamouflage.DetectBatch(context.Background(), ens, imgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != len(imgs) {
		t.Fatalf("verdict count %d", len(verdicts))
	}
	correct := 0
	for i, v := range verdicts {
		if v == nil {
			t.Fatalf("nil verdict %d", i)
		}
		if v.Attack == wantAttack[i] {
			correct++
		}
	}
	if correct < len(imgs)-1 {
		t.Errorf("batch correct %d/%d", correct, len(imgs))
	}
	// Error paths.
	if _, err := decamouflage.DetectBatch(context.Background(), nil, imgs); err == nil {
		t.Error("nil ensemble accepted")
	}
	imgs = append(imgs, &decamouflage.Image{})
	if _, err := decamouflage.DetectBatch(context.Background(), ens, imgs); err == nil {
		t.Error("invalid image accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := decamouflage.DetectBatch(ctx, ens, imgs[:2]); err == nil {
		t.Error("cancelled context accepted")
	}
}

func TestPublicBlackBoxCalibration(t *testing.T) {
	benign := make([]float64, 100)
	for i := range benign {
		benign[i] = float64(i)
	}
	th, err := decamouflage.CalibrateBlackBox(benign, 1, decamouflage.MSE)
	if err != nil {
		t.Fatal(err)
	}
	if th.Direction != decamouflage.Above {
		t.Errorf("MSE black-box direction = %v", th.Direction)
	}
	th, err = decamouflage.CalibrateBlackBox(benign, 1, decamouflage.SSIM)
	if err != nil {
		t.Fatal(err)
	}
	if th.Direction != decamouflage.Below {
		t.Errorf("SSIM black-box direction = %v", th.Direction)
	}
}

func TestPublicScoreCSPVariadic(t *testing.T) {
	src, _ := genPair(t, 1)
	n, err := decamouflage.ScoreCSP(src)
	if err != nil {
		t.Fatal(err)
	}
	if n < 0 {
		t.Errorf("CSP = %d", n)
	}
	if _, err := decamouflage.ScoreCSP(src, decamouflage.StegOptions{}, decamouflage.StegOptions{}); err == nil {
		t.Error("two options accepted")
	}
	if _, err := decamouflage.NewSteganalysisDetector(decamouflage.StegOptions{}, decamouflage.StegOptions{}); err == nil {
		t.Error("two options accepted by detector constructor")
	}
}

func TestPublicSystemConfigAndForensics(t *testing.T) {
	cfg := &decamouflage.SystemConfig{
		DstW: 24, DstH: 24,
		Algorithm: "bilinear",
		Thresholds: map[string]decamouflage.Threshold{
			"scaling/MSE": {Value: 700, Direction: decamouflage.Above},
		},
	}
	ens, err := decamouflage.BuildSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, tgt := genPair(t, 8)
	scaler, err := decamouflage.NewScaler(96, 96, 24, 24, decamouflage.Bilinear)
	if err != nil {
		t.Fatal(err)
	}
	res, err := decamouflage.CraftAttack(src, tgt, scaler, 2)
	if err != nil {
		t.Fatal(err)
	}
	v, err := decamouflage.Detect(context.Background(), ens, res.Attack)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Attack {
		t.Errorf("system from config missed attack: %+v", v)
	}
	// Forensics: the target-size estimate is a per-image heuristic
	// (recovery rate ~2/3 in the X9 study); require at least one good
	// recovery across several attacks.
	recovered := 0
	for i := 8; i < 12; i++ {
		s, tg := genPair(t, i)
		r2, err := decamouflage.CraftAttack(s, tg, scaler, 2)
		if err != nil {
			t.Fatal(err)
		}
		w, h, ok := decamouflage.EstimateAttackTarget(r2.Attack)
		if ok && w >= 20 && w <= 28 && h >= 20 && h <= 28 {
			recovered++
		}
	}
	if recovered == 0 {
		t.Error("target size never recovered across 4 attacks")
	}
	if got := decamouflage.MatchModels(224, 224, 0); len(got) < 4 {
		t.Errorf("MatchModels(224) = %v", got)
	}
}

func TestPublicImageIO(t *testing.T) {
	src, _ := genPair(t, 2)
	dir := t.TempDir()
	path := filepath.Join(dir, "x.png")
	if err := src.SavePNG(path); err != nil {
		t.Fatal(err)
	}
	back, err := decamouflage.LoadImage(path)
	if err != nil {
		t.Fatal(err)
	}
	if !back.SameShape(src) {
		t.Errorf("round trip shape %v", back)
	}
	if _, err := decamouflage.DecodeImage(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("junk accepted")
	}
}
