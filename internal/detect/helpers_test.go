package detect

// Shared test helpers. mustScaler and the stub scorer/detector pair were
// previously duplicated across test files; every detect test builds its
// fixtures from this one set so the stubs exercise the pipeline adapter
// and the reference path identically.

import (
	"testing"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/scaling"
)

// mustScaler builds a bilinear scaler or fails the test.
func mustScaler(t testing.TB, srcW, srcH, dstW, dstH int) *scaling.Scaler {
	t.Helper()
	s, err := scaling.NewScaler(srcW, srcH, dstW, dstH, scaling.Options{Algorithm: scaling.Bilinear})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// stubScorer returns a fixed score or error. It is a plain Scorer (no
// ScorePipeline), so ensembles built over it pin the pipeline adapter's
// fallback path for third-party scorers.
type stubScorer struct {
	name  string
	score float64
	err   error
}

func (s *stubScorer) Name() string { return s.name }

func (s *stubScorer) Score(*imgcore.Image) (float64, error) {
	return s.score, s.err
}

// stubDetector wraps a stubScorer in a Threshold{1, Above} detector whose
// verdict is forced to the requested side (score 2 = attack, 0 = benign).
func stubDetector(t testing.TB, name string, score float64, attackSide bool) *Detector {
	t.Helper()
	th := Threshold{Value: 1, Direction: Above}
	sc := score
	if attackSide {
		sc = 2 // above threshold
	} else {
		sc = 0
	}
	d, err := NewDetector(&stubScorer{name: name, score: sc}, th)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
