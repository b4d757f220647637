// Package stats provides the descriptive statistics used by Decamouflage's
// threshold calibration and evaluation harness: moments, percentiles,
// histograms, and distribution-overlap measures.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty indicates an operation that requires at least one sample.
var ErrEmpty = errors.New("stats: empty sample set")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// MeanStd returns both the mean and population standard deviation in one
// pass over xs.
func MeanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return m, math.Sqrt(s / float64(len(xs)))
}

// MinMax returns the smallest and largest values in xs.
// It returns an error for an empty slice.
func MinMax(xs []float64) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi, nil
}

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between closest ranks (the same convention as
// numpy.percentile's default). It returns an error for an empty slice or an
// out-of-range p.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 || math.IsNaN(p) {
		return 0, fmt.Errorf("stats: percentile %v out of range [0,100]", p)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) (float64, error) {
	return Percentile(xs, 50)
}

// OverlapCoefficient estimates the overlap between the empirical
// distributions of a and b as the shared area of their normalized
// histograms over a common range with the given number of bins. It returns
// a value in [0,1] where 0 means perfectly separable and 1 means identical.
// This quantifies the paper's Appendix-A observation that benign and attack
// PSNR histograms are "highly overlapped" while MSE/SSIM are separable.
func OverlapCoefficient(a, b []float64, bins int) (float64, error) {
	if len(a) == 0 || len(b) == 0 {
		return 0, ErrEmpty
	}
	if bins <= 0 {
		return 0, fmt.Errorf("stats: bins must be positive, got %d", bins)
	}
	loA, hiA, _ := MinMax(a)
	loB, hiB, _ := MinMax(b)
	lo, hi := math.Min(loA, loB), math.Max(hiA, hiB)
	//declint:ignore floateq a degenerate range needs exact detection before padding
	if lo == hi {
		return 1, nil // all mass in one point for both
	}
	ha := binCounts(a, lo, hi, bins)
	hb := binCounts(b, lo, hi, bins)
	var overlap float64
	for i := 0; i < bins; i++ {
		pa := float64(ha[i]) / float64(len(a))
		pb := float64(hb[i]) / float64(len(b))
		overlap += math.Min(pa, pb)
	}
	return overlap, nil
}

func binCounts(xs []float64, lo, hi float64, bins int) []int {
	counts := make([]int, bins)
	scale := float64(bins) / (hi - lo)
	for _, x := range xs {
		i := int((x - lo) * scale)
		if i < 0 {
			i = 0
		}
		if i >= bins {
			i = bins - 1
		}
		counts[i]++
	}
	return counts
}

// Histogram is a fixed-range binned view of a sample set, used to render
// the paper's distribution figures.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	Total  int
}

// NewHistogram bins xs into the given number of equal-width bins spanning
// [lo, hi]. Samples outside the range are clamped into the edge bins.
func NewHistogram(xs []float64, lo, hi float64, bins int) (*Histogram, error) {
	if bins <= 0 {
		return nil, fmt.Errorf("stats: bins must be positive, got %d", bins)
	}
	if !(hi > lo) {
		return nil, fmt.Errorf("stats: invalid histogram range [%v,%v]", lo, hi)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: binCounts(xs, lo, hi, bins), Total: len(xs)}, nil
}

// BinCenter returns the center value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// MaxCount returns the largest bin count.
func (h *Histogram) MaxCount() int {
	mx := 0
	for _, c := range h.Counts {
		if c > mx {
			mx = c
		}
	}
	return mx
}
