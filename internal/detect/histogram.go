package detect

import (
	"fmt"
	"math"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/scaling"
)

// HistogramScorer implements the color-histogram check originally suggested
// (without experiments) by Xiao et al. as a defense: compare the color
// histogram of the input with that of its downscaled output; an attack
// image's downscale shows the hidden target, so its colors should differ.
//
// The paper reports — and the X6 experiment reproduces — that this metric
// does NOT separate attacks from benign images (scaling legitimately
// changes color statistics, and the attack only needs to perturb a sparse
// pixel subset whose mass barely moves the histogram). It is included as a
// baseline, not as a recommended method.
type HistogramScorer struct {
	scaler *scaling.Scaler
	bins   int
}

// NewHistogramScorer builds the baseline scorer with the given number of
// bins per channel (e.g. 32).
func NewHistogramScorer(scaler *scaling.Scaler, bins int) (*HistogramScorer, error) {
	if scaler == nil {
		return nil, ErrNilScaler
	}
	if bins < 2 || bins > 256 {
		return nil, fmt.Errorf("detect: histogram bins %d outside [2,256]", bins)
	}
	return &HistogramScorer{scaler: scaler, bins: bins}, nil
}

// Name implements Scorer.
func (s *HistogramScorer) Name() string { return "histogram/intersection" }

// Score implements Scorer. It returns 1 − histogram intersection between
// the input image and its downscaled output, in [0,1]: 0 means identical
// color distributions, 1 means disjoint. Under Xiao et al.'s hypothesis
// attacks should score high; in practice the distributions overlap. An
// image with a NaN or ±Inf sample has no histogram and scores NaN, as
// every metric in internal/metrics does.
func (s *HistogramScorer) Score(img *imgcore.Image) (float64, error) {
	if err := img.Validate(); err != nil {
		return 0, err
	}
	for _, v := range img.Pix {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return math.NaN(), nil
		}
	}
	down, err := s.scaler.Resize(img)
	if err != nil {
		return 0, fmt.Errorf("detect: histogram downscale: %w", err)
	}
	hi := s.histogram(img)
	hd := s.histogram(down)
	var inter float64
	for i := range hi {
		inter += math.Min(hi[i], hd[i])
	}
	// Normalize by channel count: each channel histogram sums to 1.
	inter /= float64(img.C)
	return 1 - inter, nil
}

// histogram returns the concatenated normalized per-channel histograms.
func (s *HistogramScorer) histogram(img *imgcore.Image) []float64 {
	h := make([]float64, s.bins*img.C)
	scale := float64(s.bins) / 256.0
	for i := 0; i < img.W*img.H; i++ {
		for c := 0; c < img.C; c++ {
			v := img.Pix[i*img.C+c]
			b := int(v * scale)
			if b < 0 {
				b = 0
			} else if b >= s.bins {
				b = s.bins - 1
			}
			h[c*s.bins+b]++
		}
	}
	n := float64(img.W * img.H)
	for i := range h {
		h[i] /= n
	}
	return h
}

// Interface compliance.
var _ Scorer = (*HistogramScorer)(nil)
