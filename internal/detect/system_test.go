package detect

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"decamouflage/internal/steg"
	"decamouflage/internal/testutil"
)

func validConfig() *SystemConfig {
	return &SystemConfig{
		DstW: 16, DstH: 16,
		Algorithm: "bilinear",
		Thresholds: map[string]Threshold{
			"scaling/MSE":    {Value: 500, Direction: Above},
			"filtering/SSIM": {Value: 0.5, Direction: Below},
		},
	}
}

func TestSystemConfigValidate(t *testing.T) {
	if err := validConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := validConfig()
	bad.DstW = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero dst accepted")
	}
	bad = validConfig()
	bad.Algorithm = "bogus"
	if err := bad.Validate(); err == nil {
		t.Error("bogus algorithm accepted")
	}
	bad = validConfig()
	bad.FilterWindow = 1
	if err := bad.Validate(); err == nil {
		t.Error("window 1 accepted")
	}
	bad = validConfig()
	bad.Thresholds["x"] = Threshold{}
	if err := bad.Validate(); err == nil {
		t.Error("invalid threshold accepted")
	}
}

// TestSystemConfigRejectsBadSteg pins that CSP options which would fail
// every image fail at load instead: in UnmarshalSystemConfig and in
// BuildSystem. Zero fields are the calibrated defaults and stay valid.
func TestSystemConfigRejectsBadSteg(t *testing.T) {
	for _, tc := range []struct {
		name string
		steg string
		ok   bool
	}{
		{"absent", ``, true},
		{"zero", `,"steg":{}`, true},
		{"explicit", `,"steg":{"BinarizeThreshold":0.5,"SmoothSigma":2,"MinArea":3}`, true},
		{"smoothing disabled", `,"steg":{"SmoothSigma":-1}`, true},
		{"threshold 5", `,"steg":{"BinarizeThreshold":5}`, false},
		{"threshold 1", `,"steg":{"BinarizeThreshold":1}`, false},
		{"negative threshold", `,"steg":{"BinarizeThreshold":-0.2}`, false},
		{"negative min area", `,"steg":{"MinArea":-1}`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := `{"dst_w":16,"dst_h":16,"algorithm":"bilinear","thresholds":{}` + tc.steg + `}`
			cfg, err := UnmarshalSystemConfig([]byte(data))
			if tc.ok != (err == nil) {
				t.Fatalf("UnmarshalSystemConfig: err = %v, want ok = %v", err, tc.ok)
			}
			if cfg == nil {
				cfg = &SystemConfig{}
				if err := json.Unmarshal([]byte(data), cfg); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := BuildSystem(cfg); tc.ok != (err == nil) {
				t.Fatalf("BuildSystem: err = %v, want ok = %v", err, tc.ok)
			}
		})
	}
}

// TestThresholdNamesMustBeBuiltin pins that a system config and a
// calibration accept exactly the built-in method names: a misspelled or
// unknown name is an error that lists the accepted ones, instead of a
// method silently left out of the ensemble.
func TestThresholdNamesMustBeBuiltin(t *testing.T) {
	th := Threshold{Value: 1, Direction: Above}
	for _, tc := range []struct {
		name string
		ok   bool
	}{
		{"scaling/MSE", true},
		{"scaling/SSIM", true},
		{"scaling/PSNR", true},
		{"filtering/MSE", true},
		{"filtering/SSIM", true},
		{"filtering/PSNR", true},
		{"steganalysis/CSP", true},
		{"filtering/ssim", false},
		{"scaling/CSP", false},
		{"steganalysis/MSE", false},
		{"histogram/MSE", false},
		{"scaling", false},
		{"", false},
	} {
		cfg := validConfig()
		cfg.Thresholds = map[string]Threshold{tc.name: th}
		cal, err := json.Marshal(&Calibration{Setting: "x", Thresholds: cfg.Thresholds})
		if err != nil {
			t.Fatal(err)
		}
		_, calErr := UnmarshalCalibration(cal)
		for what, err := range map[string]error{"Validate": cfg.Validate(), "UnmarshalCalibration": calErr} {
			switch {
			case tc.ok && err != nil:
				t.Errorf("%s rejected %q: %v", what, tc.name, err)
			case !tc.ok && err == nil:
				t.Errorf("%s accepted %q", what, tc.name)
			case !tc.ok && !strings.Contains(err.Error(), "scaling/MSE, scaling/SSIM, scaling/PSNR, filtering/MSE, filtering/SSIM, filtering/PSNR, steganalysis/CSP"):
				t.Errorf("%s error for %q does not list the accepted names: %v", what, tc.name, err)
			}
		}
	}
}

func TestSystemConfigRoundTrip(t *testing.T) {
	cfg := validConfig()
	cfg.Steg = steg.Options{BinarizeThreshold: 0.7, MinArea: 8}
	data, err := MarshalSystemConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalSystemConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Algorithm != "bilinear" || !testutil.BitEqual(back.Steg.BinarizeThreshold, 0.7) {
		t.Errorf("round trip lost data: %+v", back)
	}
	if _, err := UnmarshalSystemConfig([]byte("{")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := UnmarshalSystemConfig([]byte(`{"dst_w":0}`)); err == nil {
		t.Error("invalid config accepted")
	}
	bad := validConfig()
	bad.DstH = -1
	if _, err := MarshalSystemConfig(bad); err == nil {
		t.Error("marshal of invalid config accepted")
	}
}

func TestBuildSystem(t *testing.T) {
	cfg := validConfig()
	ens, err := BuildSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := ens.Detectors()
	if len(ds) != 3 {
		t.Fatalf("detector count = %d, want 3 (2 configured + steg default)", len(ds))
	}
	names := map[string]bool{}
	for _, d := range ds {
		names[d.Name()] = true
	}
	for _, want := range []string{"scaling/MSE", "filtering/SSIM", "steganalysis/CSP"} {
		if !names[want] {
			t.Errorf("missing %q", want)
		}
	}
	// Works end to end on a benign image.
	img := corpusImage(t, 9, 0, 64, 64)
	v, err := ens.Detect(context.Background(), img)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Verdicts) != 3 {
		t.Errorf("verdicts = %d", len(v.Verdicts))
	}
}

func TestBuildSystemAllMethods(t *testing.T) {
	cfg := validConfig()
	cfg.Thresholds["scaling/SSIM"] = Threshold{Value: 0.4, Direction: Below}
	cfg.Thresholds["filtering/MSE"] = Threshold{Value: 900, Direction: Above}
	cfg.Thresholds["steganalysis/CSP"] = Threshold{Value: 3, Direction: Above}
	cfg.FilterWindow = 3
	ens, err := BuildSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ens.Detectors()) != 5 {
		t.Errorf("detector count = %d, want 5", len(ens.Detectors()))
	}
}

// TestBuildSystemCanonicalOrder pins the one assembly order: every
// configured built-in method, PSNR included, in the order scaling,
// filtering, steganalysis and MSE, SSIM, PSNR within a method, each with
// exactly the configured threshold.
func TestBuildSystemCanonicalOrder(t *testing.T) {
	want := []string{
		"scaling/MSE", "scaling/SSIM", "scaling/PSNR",
		"filtering/MSE", "filtering/SSIM", "filtering/PSNR",
		"steganalysis/CSP",
	}
	cfg := validConfig()
	cfg.Thresholds = map[string]Threshold{}
	for i, name := range want {
		cfg.Thresholds[name] = Threshold{Value: float64(i + 1), Direction: Above}
	}
	ens, err := BuildSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := ens.Detectors()
	if len(ds) != len(want) {
		t.Fatalf("detector count = %d, want %d", len(ds), len(want))
	}
	for i, d := range ds {
		if d.Name() != want[i] || d.Threshold() != cfg.Thresholds[want[i]] {
			t.Errorf("detector %d = %s %+v, want %s %+v", i, d.Name(), d.Threshold(), want[i], cfg.Thresholds[want[i]])
		}
	}
}

func TestBuildSystemRejectsInvalid(t *testing.T) {
	bad := validConfig()
	bad.Algorithm = ""
	if _, err := BuildSystem(bad); err == nil {
		t.Error("invalid config accepted by BuildSystem")
	}
}

func TestMatchModels(t *testing.T) {
	hits := MatchModels(224, 224, 0)
	if len(hits) < 4 {
		t.Fatalf("224x224 matched %d models", len(hits))
	}
	for _, m := range hits {
		if m.W != 224 || m.H != 224 {
			t.Errorf("bad match %+v", m)
		}
	}
	// Tolerance picks up AlexNet (227) too.
	withTol := MatchModels(224, 224, 3)
	if len(withTol) != len(hits)+1 {
		t.Errorf("tol=3 matched %d, want %d", len(withTol), len(hits)+1)
	}
	found := false
	for _, m := range withTol {
		if strings.Contains(m.Model, "AlexNet") {
			found = true
		}
	}
	if !found {
		t.Error("AlexNet not matched at tol=3")
	}
	if got := MatchModels(999, 999, 2); len(got) != 0 {
		t.Errorf("bogus size matched %v", got)
	}
	// DAVE-2's non-square geometry.
	if got := MatchModels(200, 66, 0); len(got) != 1 {
		t.Errorf("DAVE-2 match = %v", got)
	}
}
