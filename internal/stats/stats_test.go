package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"decamouflage/internal/testutil"
)

func TestMeanVarianceStd(t *testing.T) {
	tests := []struct {
		name           string
		xs             []float64
		mean, variance float64
	}{
		{"empty", nil, 0, 0},
		{"single", []float64{5}, 5, 0},
		{"pair", []float64{2, 4}, 3, 1},
		{"symmetric", []float64{-1, 0, 1}, 0, 2.0 / 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); math.Abs(got-tt.mean) > 1e-12 {
				t.Errorf("Mean = %v, want %v", got, tt.mean)
			}
			if got := Variance(tt.xs); math.Abs(got-tt.variance) > 1e-12 {
				t.Errorf("Variance = %v, want %v", got, tt.variance)
			}
			if _, got := MeanStd(tt.xs); math.Abs(got-math.Sqrt(tt.variance)) > 1e-12 {
				t.Errorf("MeanStd std = %v", got)
			}
		})
	}
}

func TestMeanStdMatchesSeparate(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	m, s := MeanStd(xs)
	if sd := math.Sqrt(Variance(xs)); math.Abs(m-Mean(xs)) > 1e-12 || math.Abs(s-sd) > 1e-12 {
		t.Errorf("MeanStd = (%v,%v), want (%v,%v)", m, s, Mean(xs), sd)
	}
}

func TestMinMax(t *testing.T) {
	if _, _, err := MinMax(nil); err == nil {
		t.Fatal("MinMax(nil) = nil error")
	}
	lo, hi, err := MinMax([]float64{3, -2, 7, 0})
	if err != nil || !testutil.BitEqual(lo, -2) || !testutil.BitEqual(hi, 7) {
		t.Fatalf("MinMax = %v,%v,%v", lo, hi, err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4},
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.p)
		if err != nil {
			t.Fatalf("Percentile(%v): %v", tt.p, err)
		}
		if math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("Percentile(empty) = nil error")
	}
	if _, err := Percentile(xs, -1); err == nil {
		t.Error("Percentile(-1) = nil error")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("Percentile(101) = nil error")
	}
	if got, err := Percentile([]float64{7}, 99); err != nil || !testutil.BitEqual(got, 7) {
		t.Errorf("Percentile(single,99) = %v,%v", got, err)
	}
	med, err := Median(xs)
	if err != nil || !testutil.BitEqual(med, 3) {
		t.Errorf("Median = %v,%v", med, err)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		n := int(seed%97+3) % 50
		if n < 3 {
			n = 3
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		lo, hi, _ := MinMax(xs)
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v, err := Percentile(xs, p)
			if err != nil || v < prev-1e-9 || v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestOverlapCoefficient(t *testing.T) {
	a := []float64{0, 1, 2, 3, 4}
	farB := []float64{100, 101, 102}
	ov, err := OverlapCoefficient(a, farB, 20)
	if err != nil {
		t.Fatalf("OverlapCoefficient: %v", err)
	}
	if ov > 0.01 {
		t.Errorf("overlap of disjoint sets = %v, want ~0", ov)
	}
	ov, err = OverlapCoefficient(a, a, 20)
	if err != nil || math.Abs(ov-1) > 1e-9 {
		t.Errorf("self overlap = %v,%v, want 1", ov, err)
	}
	if _, err := OverlapCoefficient(nil, a, 10); err == nil {
		t.Error("OverlapCoefficient(empty) = nil error")
	}
	if _, err := OverlapCoefficient(a, a, 0); err == nil {
		t.Error("OverlapCoefficient(bins=0) = nil error")
	}
	ov, err = OverlapCoefficient([]float64{5, 5}, []float64{5}, 4)
	if err != nil || !testutil.BitEqual(ov, 1) {
		t.Errorf("point-mass overlap = %v,%v, want 1", ov, err)
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0, 0.5, 1, 5, 9.9, 10, -3, 42}
	h, err := NewHistogram(xs, 0, 10, 10)
	if err != nil {
		t.Fatalf("NewHistogram: %v", err)
	}
	if h.Total != len(xs) {
		t.Errorf("Total = %d", h.Total)
	}
	var sum int
	for _, c := range h.Counts {
		sum += c
	}
	if sum != len(xs) {
		t.Errorf("bin counts sum to %d, want %d (clamping)", sum, len(xs))
	}
	// -3 clamps to bin 0; 42 and 10 clamp to last bin.
	if h.Counts[0] < 2 {
		t.Errorf("edge bin 0 = %d, want >= 2", h.Counts[0])
	}
	if h.Counts[9] < 3 {
		t.Errorf("edge bin 9 = %d, want >= 3", h.Counts[9])
	}
	if got := h.BinCenter(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("BinCenter(0) = %v, want 0.5", got)
	}
	if h.MaxCount() < 3 {
		t.Errorf("MaxCount = %d", h.MaxCount())
	}
	if _, err := NewHistogram(xs, 5, 5, 4); err == nil {
		t.Error("NewHistogram(bad range) = nil error")
	}
	if _, err := NewHistogram(xs, 0, 1, 0); err == nil {
		t.Error("NewHistogram(0 bins) = nil error")
	}
}

// Property: histogram preserves total sample count for any range.
func TestHistogramConservesMassProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		n := int(seed%53+53)%53 + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()*200 - 100
		}
		h, err := NewHistogram(xs, -50, 50, 13)
		if err != nil {
			return false
		}
		var sum int
		for _, c := range h.Counts {
			sum += c
		}
		return sum == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPercentileAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = rng.Float64() * 1000
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for p := 0; p <= 100; p += 10 {
		got, err := Percentile(xs, float64(p))
		if err != nil {
			t.Fatal(err)
		}
		want := sorted[p] // with n=101, rank = p/100*100 = p exactly
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("Percentile(%d) = %v, want %v", p, got, want)
		}
	}
}
