package defense

import (
	"testing"

	"decamouflage/internal/attack"
	"decamouflage/internal/dataset"
	"decamouflage/internal/imgcore"
	"decamouflage/internal/metrics"
	"decamouflage/internal/scaling"
)

func mustScaler(t testing.TB) *scaling.Scaler {
	t.Helper()
	s, err := scaling.NewScaler(128, 128, 32, 32, scaling.Options{Algorithm: scaling.Bilinear})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func corpusPair(t testing.TB, i int) (src, tgt *imgcore.Image) {
	t.Helper()
	g, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.CaltechLike, W: 128, H: 128, C: 3, Seed: 50})
	if err != nil {
		t.Fatal(err)
	}
	tg, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.CaltechLike, W: 32, H: 32, C: 3, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	return g.Image(i), tg.Image(i)
}

func TestRobustScaler(t *testing.T) {
	if _, err := RobustScaler(nil); err == nil {
		t.Error("nil scaler accepted")
	}
	s := mustScaler(t)
	rs, err := RobustScaler(s)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Options().Algorithm != scaling.Area {
		t.Errorf("robust algorithm = %v", rs.Options().Algorithm)
	}
	w, h := rs.DstSize()
	if w != 32 || h != 32 {
		t.Errorf("robust geometry = %dx%d", w, h)
	}
}

// The core claim: an attack crafted against the vulnerable scaler does NOT
// survive the robust scaler — its downscale stays close to the benign
// downscale, not the target.
func TestRobustScalerNeutralizesAttack(t *testing.T) {
	s := mustScaler(t)
	src, tgt := corpusPair(t, 0)
	res, err := attack.Craft(src, tgt, attack.Config{Scaler: s, Eps: 2})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RobustScaler(s)
	if err != nil {
		t.Fatal(err)
	}
	benignDown, err := rs.Resize(src)
	if err != nil {
		t.Fatal(err)
	}
	attackDown, err := rs.Resize(res.Attack)
	if err != nil {
		t.Fatal(err)
	}
	toTarget, err := metrics.MSE(attackDown, tgt)
	if err != nil {
		t.Fatal(err)
	}
	toBenign, err := metrics.MSE(attackDown, benignDown)
	if err != nil {
		t.Fatal(err)
	}
	if toBenign >= toTarget {
		t.Errorf("robust downscale closer to target (%v) than to benign (%v): defense failed", toTarget, toBenign)
	}
}

func TestMedianReconstructValidation(t *testing.T) {
	s := mustScaler(t)
	src, _ := corpusPair(t, 1)
	if _, err := MedianReconstruct(src, nil, 0); err == nil {
		t.Error("nil scaler accepted")
	}
	if _, err := MedianReconstruct(&imgcore.Image{}, s, 0); err == nil {
		t.Error("empty image accepted")
	}
	small := imgcore.MustNew(16, 16, 3)
	if _, err := MedianReconstruct(small, s, 0); err == nil {
		t.Error("mismatched image accepted")
	}
}

func TestMedianReconstructNeutralizesAttack(t *testing.T) {
	s := mustScaler(t)
	src, tgt := corpusPair(t, 2)
	res, err := attack.Craft(src, tgt, attack.Config{Scaler: s, Eps: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Without the defense the attack hits the target.
	if res.MaxViolation > 2.1 {
		t.Fatalf("attack itself failed: %v", res.MaxViolation)
	}
	cleaned, err := MedianReconstruct(res.Attack, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	cleanDown, err := s.Resize(cleaned)
	if err != nil {
		t.Fatal(err)
	}
	benignDown, err := s.Resize(src)
	if err != nil {
		t.Fatal(err)
	}
	toTarget, err := metrics.MSE(cleanDown, tgt)
	if err != nil {
		t.Fatal(err)
	}
	toBenign, err := metrics.MSE(cleanDown, benignDown)
	if err != nil {
		t.Fatal(err)
	}
	if toBenign >= toTarget {
		t.Errorf("reconstructed downscale closer to target (%v) than benign (%v)", toTarget, toBenign)
	}
}

func TestMedianReconstructPreservesBenign(t *testing.T) {
	s := mustScaler(t)
	src, _ := corpusPair(t, 3)
	cleaned, err := MedianReconstruct(src, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Quiring et al.'s known limitation — some quality loss — but a benign
	// image should stay recognizable.
	mse, err := metrics.MSE(cleaned, src)
	if err != nil {
		t.Fatal(err)
	}
	if mse > 500 {
		t.Errorf("reconstruction damaged benign image: MSE %v", mse)
	}
}

func TestMedianReconstructExplicitWindow(t *testing.T) {
	s := mustScaler(t)
	src, _ := corpusPair(t, 4)
	out, err := MedianReconstruct(src, s, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !out.SameShape(src) {
		t.Errorf("geometry changed: %v", out)
	}
}
