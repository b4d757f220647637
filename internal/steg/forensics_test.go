package steg

import (
	"testing"

	"decamouflage/internal/attack"
	"decamouflage/internal/dataset"
	"decamouflage/internal/scaling"
)

// The forensic claim: replica spacing reveals the attacker's target size.
func TestEstimateTargetSizeOnRealAttacks(t *testing.T) {
	tests := []struct {
		srcW, srcH, dstW, dstH int
	}{
		{128, 128, 32, 32},
		{128, 128, 16, 16},
	}
	for _, tt := range tests {
		g, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.CaltechLike, W: tt.srcW, H: tt.srcH, C: 3, Seed: 71})
		if err != nil {
			t.Fatal(err)
		}
		tg, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.CaltechLike, W: tt.dstW, H: tt.dstH, C: 3, Seed: 72})
		if err != nil {
			t.Fatal(err)
		}
		scaler, err := scaling.NewScaler(tt.srcW, tt.srcH, tt.dstW, tt.dstH, scaling.Options{Algorithm: scaling.Bilinear})
		if err != nil {
			t.Fatal(err)
		}
		hits := 0
		const n = 5
		for i := 0; i < n; i++ {
			res, err := attack.Craft(g.Image(i), tg.Image(i), attack.Config{Scaler: scaler, Eps: 2})
			if err != nil {
				t.Fatal(err)
			}
			// The estimator sweeps its own binarization levels, so it
			// measures the 8x ratio's replicas too, although they sit
			// below the default detection threshold (see X9).
			w, h, ok := EstimateTargetSize(res.Attack, Options{})
			if !ok {
				continue
			}
			// Allow a couple of pixels of centroid jitter.
			if absInt(w-tt.dstW) <= 3 && absInt(h-tt.dstH) <= 3 {
				hits++
			} else {
				t.Logf("%dx%d->%dx%d attack %d: estimated %dx%d", tt.srcW, tt.srcH, tt.dstW, tt.dstH, i, w, h)
			}
		}
		if hits < n-1 {
			t.Errorf("%dx%d: target size recovered for only %d/%d attacks", tt.dstW, tt.dstH, hits, n)
		}
	}
}

// TestFundamentalSpacingRefinesToFit: the largest spacing within tolerance
// of every replica distance sits above the true spacing; the least-squares
// refinement brings it back, and a sub-harmonic still does not win.
func TestFundamentalSpacingRefinesToFit(t *testing.T) {
	for _, tc := range []struct {
		ds   []float64
		want int
	}{
		{[]float64{32}, 32},
		{[]float64{32, 64}, 32},
		{[]float64{31.6, 64.4, 95.8}, 32},
		{[]float64{16, 32, 48}, 16},
		{nil, 0},
	} {
		if got := fundamentalSpacing(tc.ds); got != tc.want {
			t.Errorf("fundamentalSpacing(%v) = %d, want %d", tc.ds, got, tc.want)
		}
	}
}

func TestAnalysisCentroidsPairedWithAreas(t *testing.T) {
	g, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.CaltechLike, W: 64, H: 64, C: 1, Seed: 74})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(g.Image(0), Options{BinarizeThreshold: 0.5, MinArea: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Centroids) != len(a.Areas) || len(a.Areas) != a.Count {
		t.Fatalf("lengths: centroids %d areas %d count %d", len(a.Centroids), len(a.Areas), a.Count)
	}
	for i, c := range a.Centroids {
		if c[0] < 0 || c[0] >= 64 || c[1] < 0 || c[1] >= 64 {
			t.Errorf("centroid %d out of bounds: %v", i, c)
		}
	}
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
