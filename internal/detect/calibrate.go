package detect

import (
	"encoding/json"
	"fmt"
	"sort"

	"decamouflage/internal/stats"
)

// WhiteBoxResult is the outcome of white-box threshold selection.
type WhiteBoxResult struct {
	Threshold Threshold
	// TrainAccuracy is the accuracy achieved on the calibration scores.
	TrainAccuracy float64
	// Curve is the explored (threshold candidate, accuracy) series — the
	// paper's Figure 8.
	Curve []CurvePoint
}

// CurvePoint is one candidate threshold and its training accuracy.
type CurvePoint struct {
	Threshold float64
	Accuracy  float64
}

// CalibrateWhiteBox selects the decision threshold that maximizes accuracy
// on labelled benign and attack score samples — the paper's "gradient
// descent method that searches for the optimal threshold". For a 1-D
// threshold classifier the optimum always lies at a midpoint between two
// adjacent sorted scores, so the exhaustive midpoint scan below finds the
// global optimum of the same objective the paper's iterative search climbs.
// The comparison direction is inferred from the score means.
func CalibrateWhiteBox(benign, attack []float64) (*WhiteBoxResult, error) {
	if len(benign) == 0 || len(attack) == 0 {
		return nil, fmt.Errorf("detect: white-box calibration needs both benign and attack scores")
	}
	dir := Above
	if stats.Mean(attack) < stats.Mean(benign) {
		dir = Below
	}

	// Candidate thresholds: midpoints of adjacent values in the merged
	// sorted score set, plus sentinels outside the range.
	all := make([]float64, 0, len(benign)+len(attack))
	all = append(all, benign...)
	all = append(all, attack...)
	sort.Float64s(all)
	candidates := make([]float64, 0, len(all)+1)
	candidates = append(candidates, all[0]-1)
	for i := 1; i < len(all); i++ {
		//declint:ignore floateq candidate thresholds split only strictly distinct sorted scores
		if all[i] != all[i-1] {
			candidates = append(candidates, (all[i]+all[i-1])/2)
		}
	}
	candidates = append(candidates, all[len(all)-1]+1)

	res := &WhiteBoxResult{Curve: make([]CurvePoint, 0, len(candidates))}
	best := -1.0
	for _, c := range candidates {
		th := Threshold{Value: c, Direction: dir}
		correct := 0
		for _, s := range benign {
			if !th.Classify(s) {
				correct++
			}
		}
		for _, s := range attack {
			if th.Classify(s) {
				correct++
			}
		}
		acc := float64(correct) / float64(len(benign)+len(attack))
		res.Curve = append(res.Curve, CurvePoint{Threshold: c, Accuracy: acc})
		if acc > best {
			best = acc
			res.Threshold = th
			res.TrainAccuracy = acc
		}
	}
	return res, nil
}

// CalibrateBlackBox selects a threshold from benign scores alone using the
// paper's percentile rule: with percentile p (e.g. 1, 2 or 3), the boundary
// admits all but the most extreme p% of benign scores in the attack
// direction, fixing the training FRR at ~p%.
func CalibrateBlackBox(benign []float64, percentile float64, dir Direction) (Threshold, error) {
	if len(benign) == 0 {
		return Threshold{}, fmt.Errorf("detect: black-box calibration needs benign scores")
	}
	if percentile <= 0 || percentile >= 50 {
		return Threshold{}, fmt.Errorf("detect: percentile %v outside (0,50)", percentile)
	}
	if dir != Above && dir != Below {
		return Threshold{}, fmt.Errorf("detect: invalid direction %d", int(dir))
	}
	var p float64
	if dir == Above {
		p = 100 - percentile
	} else {
		p = percentile
	}
	v, err := stats.Percentile(benign, p)
	if err != nil {
		return Threshold{}, fmt.Errorf("detect: percentile: %w", err)
	}
	return Threshold{Value: v, Direction: dir}, nil
}

// Calibration is a serializable bundle of per-method thresholds, so a
// threshold picked on one dataset can be persisted and applied to another —
// the paper's "pre-determined detection threshold that is generic".
type Calibration struct {
	// Setting records how the thresholds were obtained ("whitebox" or
	// "blackbox", cmd/calibrate's -mode values).
	Setting string `json:"setting"`
	// Thresholds maps scorer name (e.g. "scaling/MSE") to its boundary.
	Thresholds map[string]Threshold `json:"thresholds"`
}

// NewCalibration creates an empty calibration for the given setting.
func NewCalibration(setting string) *Calibration {
	return &Calibration{Setting: setting, Thresholds: make(map[string]Threshold)}
}

// Set stores a method threshold.
func (c *Calibration) Set(method string, t Threshold) { c.Thresholds[method] = t }

// Get fetches a method threshold.
func (c *Calibration) Get(method string) (Threshold, bool) {
	t, ok := c.Thresholds[method]
	return t, ok
}

// MarshalJSON is the default; UnmarshalCalibration parses a persisted one.
func UnmarshalCalibration(data []byte) (*Calibration, error) {
	var c Calibration
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("detect: parse calibration: %w", err)
	}
	if c.Thresholds == nil {
		c.Thresholds = make(map[string]Threshold)
	}
	if err := validateThresholds(c.Thresholds); err != nil {
		return nil, fmt.Errorf("detect: calibration %w", err)
	}
	return &c, nil
}
