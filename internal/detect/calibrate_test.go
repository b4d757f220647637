package detect

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"decamouflage/internal/stats"
	"decamouflage/internal/testutil"
)

func TestCalibrateWhiteBoxSeparable(t *testing.T) {
	benign := []float64{1, 2, 3, 4, 5}
	attacks := []float64{100, 120, 130}
	res, err := CalibrateWhiteBox(benign, attacks)
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.BitEqual(res.TrainAccuracy, 1) {
		t.Errorf("separable accuracy = %v", res.TrainAccuracy)
	}
	if res.Threshold.Direction != Above {
		t.Errorf("direction = %v", res.Threshold.Direction)
	}
	if res.Threshold.Value <= 5 || res.Threshold.Value >= 100 {
		t.Errorf("threshold %v outside gap", res.Threshold.Value)
	}
	if len(res.Curve) == 0 {
		t.Error("empty accuracy curve")
	}
}

func TestCalibrateWhiteBoxInvertedDirection(t *testing.T) {
	// SSIM-like: attacks score LOWER than benign.
	benign := []float64{0.9, 0.95, 0.92, 0.97}
	attacks := []float64{0.2, 0.3, 0.1}
	res, err := CalibrateWhiteBox(benign, attacks)
	if err != nil {
		t.Fatal(err)
	}
	if res.Threshold.Direction != Below {
		t.Fatalf("direction = %v, want Below", res.Threshold.Direction)
	}
	if !testutil.BitEqual(res.TrainAccuracy, 1) {
		t.Errorf("accuracy = %v", res.TrainAccuracy)
	}
	// All benign classified benign, all attacks classified attack.
	for _, s := range benign {
		if res.Threshold.Classify(s) {
			t.Errorf("benign %v misclassified", s)
		}
	}
	for _, s := range attacks {
		if !res.Threshold.Classify(s) {
			t.Errorf("attack %v missed", s)
		}
	}
}

func TestCalibrateWhiteBoxOverlapping(t *testing.T) {
	benign := []float64{1, 2, 3, 10, 11}
	attacks := []float64{8, 9, 12, 13, 14}
	res, err := CalibrateWhiteBox(benign, attacks)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainAccuracy >= 1 || res.TrainAccuracy <= 0.5 {
		t.Errorf("overlap accuracy = %v, want in (0.5,1)", res.TrainAccuracy)
	}
}

func TestCalibrateWhiteBoxErrors(t *testing.T) {
	if _, err := CalibrateWhiteBox(nil, []float64{1}); err == nil {
		t.Error("empty benign accepted")
	}
	if _, err := CalibrateWhiteBox([]float64{1}, nil); err == nil {
		t.Error("empty attack accepted")
	}
}

// Property: the white-box threshold is optimal — no curve point beats it.
func TestCalibrateWhiteBoxOptimalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		nb := int(seed%20+20)%20 + 2
		na := int(seed%17+17)%17 + 2
		benign := make([]float64, nb)
		attacks := make([]float64, na)
		for i := range benign {
			benign[i] = rng.NormFloat64() * 10
		}
		for i := range attacks {
			attacks[i] = 15 + rng.NormFloat64()*10
		}
		res, err := CalibrateWhiteBox(benign, attacks)
		if err != nil {
			return false
		}
		for _, p := range res.Curve {
			if p.Accuracy > res.TrainAccuracy+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCalibrateBlackBoxAbove(t *testing.T) {
	benign := make([]float64, 101)
	for i := range benign {
		benign[i] = float64(i) // 0..100
	}
	th, err := CalibrateBlackBox(benign, 1, Above)
	if err != nil {
		t.Fatal(err)
	}
	if th.Direction != Above {
		t.Errorf("direction %v", th.Direction)
	}
	if math.Abs(th.Value-99) > 1e-9 {
		t.Errorf("threshold = %v, want 99 (99th percentile)", th.Value)
	}
	// ~1% of benign on attack side.
	flagged := 0
	for _, s := range benign {
		if th.Classify(s) {
			flagged++
		}
	}
	if flagged > 3 {
		t.Errorf("black-box FRR too high: %d/101", flagged)
	}
}

func TestCalibrateBlackBoxBelow(t *testing.T) {
	benign := make([]float64, 101)
	for i := range benign {
		benign[i] = float64(i)
	}
	th, err := CalibrateBlackBox(benign, 2, Below)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(th.Value-2) > 1e-9 {
		t.Errorf("threshold = %v, want 2 (2nd percentile)", th.Value)
	}
}

func TestCalibrateBlackBoxErrors(t *testing.T) {
	benign := []float64{1, 2, 3}
	if _, err := CalibrateBlackBox(nil, 1, Above); err == nil {
		t.Error("empty benign accepted")
	}
	if _, err := CalibrateBlackBox(benign, 0, Above); err == nil {
		t.Error("percentile 0 accepted")
	}
	if _, err := CalibrateBlackBox(benign, 50, Above); err == nil {
		t.Error("percentile 50 accepted")
	}
	if _, err := CalibrateBlackBox(benign, 1, Direction(0)); err == nil {
		t.Error("invalid direction accepted")
	}
}

func TestCalibrationRoundTrip(t *testing.T) {
	c := NewCalibration("white-box")
	c.Set("scaling/MSE", Threshold{Value: 1714.96, Direction: Above})
	c.Set("filtering/SSIM", Threshold{Value: 0.38, Direction: Below})
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalCalibration(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Setting != "white-box" {
		t.Errorf("setting = %q", back.Setting)
	}
	th, ok := back.Get("scaling/MSE")
	if !ok || !testutil.BitEqual(th.Value, 1714.96) || th.Direction != Above {
		t.Errorf("round trip threshold = %+v ok=%v", th, ok)
	}
	if _, ok := back.Get("missing"); ok {
		t.Error("missing key found")
	}
}

func TestUnmarshalCalibrationRejectsBadData(t *testing.T) {
	if _, err := UnmarshalCalibration([]byte("{")); err == nil {
		t.Error("malformed JSON accepted")
	}
	// Invalid direction inside.
	if _, err := UnmarshalCalibration([]byte(`{"setting":"x","thresholds":{"a":{"value":1,"direction":9}}}`)); err == nil {
		t.Error("invalid direction accepted")
	}
	// Null thresholds map becomes usable.
	c, err := UnmarshalCalibration([]byte(`{"setting":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	c.Set("a", Threshold{1, Above})
	if _, ok := c.Get("a"); !ok {
		t.Error("set on recovered map failed")
	}
}

// calibrateWhiteBoxIterative is the reference the exhaustive
// CalibrateWhiteBox is checked against: the paper's described "gradient
// descent" search in its literal iterative form. Starting from the
// midpoint of the class means, it repeatedly probes the neighboring
// candidate thresholds (midpoints between adjacent sorted scores) and
// moves to whichever neighbor improves training accuracy, stopping at a
// local optimum. On unimodal class distributions it finds the boundary the
// exhaustive scan finds; the scan is globally optimal for any score
// distribution at the same asymptotic cost.
func calibrateWhiteBoxIterative(benign, attack []float64) (*WhiteBoxResult, error) {
	if len(benign) == 0 || len(attack) == 0 {
		return nil, fmt.Errorf("detect: white-box calibration needs both benign and attack scores")
	}
	dir := Above
	if stats.Mean(attack) < stats.Mean(benign) {
		dir = Below
	}
	all := make([]float64, 0, len(benign)+len(attack))
	all = append(all, benign...)
	all = append(all, attack...)
	sort.Float64s(all)
	candidates := []float64{all[0] - 1}
	for i := 1; i < len(all); i++ {
		//declint:ignore floateq candidate thresholds split only strictly distinct sorted scores
		if all[i] != all[i-1] {
			candidates = append(candidates, (all[i]+all[i-1])/2)
		}
	}
	candidates = append(candidates, all[len(all)-1]+1)

	accuracyAt := func(c float64) float64 {
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
		return float64(correct) / float64(len(benign)+len(attack))
	}

	// Start at the candidate nearest the midpoint of the class means.
	start := (stats.Mean(benign) + stats.Mean(attack)) / 2
	pos := sort.SearchFloat64s(candidates, start)
	if pos >= len(candidates) {
		pos = len(candidates) - 1
	}
	res := &WhiteBoxResult{}
	cur := accuracyAt(candidates[pos])
	res.Curve = append(res.Curve, CurvePoint{Threshold: candidates[pos], Accuracy: cur})
	for {
		bestPos, bestAcc := pos, cur
		if pos > 0 {
			if a := accuracyAt(candidates[pos-1]); a > bestAcc {
				bestPos, bestAcc = pos-1, a
			}
		}
		if pos < len(candidates)-1 {
			if a := accuracyAt(candidates[pos+1]); a > bestAcc {
				bestPos, bestAcc = pos+1, a
			}
		}
		if bestPos == pos {
			break
		}
		pos, cur = bestPos, bestAcc
		res.Curve = append(res.Curve, CurvePoint{Threshold: candidates[pos], Accuracy: cur})
	}
	res.Threshold = Threshold{Value: candidates[pos], Direction: dir}
	res.TrainAccuracy = cur
	return res, nil
}

func TestCalibrateWhiteBoxIterativeMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		nb := rng.Intn(30) + 5
		na := rng.Intn(30) + 5
		benign := make([]float64, nb)
		attacks := make([]float64, na)
		// Unimodal classes with a gap, the regime the iterative search is
		// exact in.
		for i := range benign {
			benign[i] = rng.NormFloat64() * 8
		}
		for i := range attacks {
			attacks[i] = 40 + rng.NormFloat64()*8
		}
		ex, err := CalibrateWhiteBox(benign, attacks)
		if err != nil {
			t.Fatal(err)
		}
		it, err := calibrateWhiteBoxIterative(benign, attacks)
		if err != nil {
			t.Fatal(err)
		}
		if it.TrainAccuracy < ex.TrainAccuracy-1e-9 {
			t.Fatalf("trial %d: iterative %v < exhaustive %v", trial, it.TrainAccuracy, ex.TrainAccuracy)
		}
		if it.Threshold.Direction != ex.Threshold.Direction {
			t.Fatalf("trial %d: direction mismatch", trial)
		}
	}
}

func TestCalibrateWhiteBoxIterativeInverted(t *testing.T) {
	benign := []float64{0.9, 0.92, 0.95}
	attacks := []float64{0.1, 0.2, 0.3}
	it, err := calibrateWhiteBoxIterative(benign, attacks)
	if err != nil {
		t.Fatal(err)
	}
	if it.Threshold.Direction != Below || !testutil.BitEqual(it.TrainAccuracy, 1) {
		t.Errorf("iterative inverted = %+v", it)
	}
	if len(it.Curve) == 0 {
		t.Error("no descent trace")
	}
}

func TestCalibrateWhiteBoxIterativeErrors(t *testing.T) {
	if _, err := calibrateWhiteBoxIterative(nil, []float64{1}); err == nil {
		t.Error("empty benign accepted")
	}
	if _, err := calibrateWhiteBoxIterative([]float64{1}, nil); err == nil {
		t.Error("empty attack accepted")
	}
}
