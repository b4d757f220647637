package detect

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"decamouflage/internal/obs"
	"decamouflage/internal/scaling"
	"decamouflage/internal/steg"
)

// SystemConfig is the complete, serializable description of a deployed
// Decamouflage system: the protected pipeline's scaling function and the
// calibrated decision thresholds for every enabled method. A config saved
// after offline calibration is everything a gateway needs to reconstruct
// the exact same ensemble at startup.
type SystemConfig struct {
	// DstW/DstH is the model input geometry. The scaling method's round
	// trip is sized to each input, so no source geometry is stored.
	DstW int `json:"dst_w"`
	DstH int `json:"dst_h"`
	// Algorithm names the scaling kernel ("bilinear", ...).
	Algorithm string `json:"algorithm"`
	// FilterWindow is the minimum-filter size (default 2).
	FilterWindow int `json:"filter_window,omitempty"`
	// Steg carries the CSP parameters (zero values = calibrated defaults).
	Steg steg.Options `json:"steg,omitempty"`
	// Thresholds maps built-in method names ("scaling/MSE",
	// "filtering/SSIM", "steganalysis/CSP", ...; see Validate) to their
	// decision boundaries. Missing methods are omitted from the ensemble;
	// a missing steganalysis entry uses the paper's fixed CSP >= 2 rule.
	Thresholds map[string]Threshold `json:"thresholds"`
	// Obs carries the deployment's observability settings (metrics
	// recording and dump destination, debug server, profiling outputs).
	// Nil means everything off; CLI flags override individual fields.
	Obs *obs.Settings `json:"obs,omitempty"`
}

// Validate checks the config for structural problems, including
// threshold names that no built-in method owns and CSP options that would
// fail every image.
func (c *SystemConfig) Validate() error {
	if c.DstW <= 0 || c.DstH <= 0 {
		return fmt.Errorf("detect: system config needs positive dst geometry, got %dx%d", c.DstW, c.DstH)
	}
	if _, err := scaling.ParseAlgorithm(c.Algorithm); err != nil {
		return fmt.Errorf("detect: system config: %w", err)
	}
	if c.FilterWindow < 0 || c.FilterWindow == 1 {
		return fmt.Errorf("detect: system config filter window %d invalid", c.FilterWindow)
	}
	if err := c.Steg.Validate(); err != nil {
		return fmt.Errorf("detect: system config: %w", err)
	}
	if err := validateThresholds(c.Thresholds); err != nil {
		return fmt.Errorf("detect: system config %w", err)
	}
	return nil
}

// MarshalSystemConfig serializes the config as indented JSON.
func MarshalSystemConfig(c *SystemConfig) ([]byte, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(c, "", "  ")
}

// UnmarshalSystemConfig parses and validates a persisted config. Fields
// it does not know, such as the src_w/src_h of older configs, are
// ignored.
func UnmarshalSystemConfig(data []byte) (*SystemConfig, error) {
	var c SystemConfig
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("detect: parse system config: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// BuildSystem instantiates the ensemble a SystemConfig describes. It is
// the one path from thresholds to detectors: serving, the experiments
// and the public NewEnsemble all build through it.
func BuildSystem(c *SystemConfig) (*Ensemble, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return assemble(c)
}

// builtin is one built-in method/metric pair.
type builtin struct {
	method Method
	metric Metric
}

// name is the scorer name the pair builds ("scaling/MSE").
func (b builtin) name() string { return b.method.String() + "/" + b.metric.String() }

// builtins lists every built-in pair in the order assemble builds them,
// which is the order of an ensemble's detectors and verdicts.
var builtins = [...]builtin{
	{Scaling, MSE}, {Scaling, SSIM}, {Scaling, PSNR},
	{Filtering, MSE}, {Filtering, SSIM}, {Filtering, PSNR},
	{Steganalysis, CSP},
}

// validateThresholds checks that every threshold is usable and named
// after a built-in method, so a typo cannot silently drop a method.
func validateThresholds(ths map[string]Threshold) error {
	var names []string
	for _, b := range builtins {
		names = append(names, b.name())
	}
	for name, th := range ths {
		if !slices.Contains(names, name) {
			return fmt.Errorf("threshold %q: no built-in method has that name (accepted: %s)", name, strings.Join(names, ", "))
		}
		if err := th.Validate(); err != nil {
			return fmt.Errorf("threshold %q: %w", name, err)
		}
	}
	return nil
}

// assemble walks builtins and builds a detector for each method c has a
// threshold for; the steganalysis method always runs, under the paper's
// fixed CSP >= 2 rule when c has no threshold for it. c must be valid.
func assemble(c *SystemConfig) (*Ensemble, error) {
	alg, err := scaling.ParseAlgorithm(c.Algorithm)
	if err != nil {
		return nil, err
	}
	window := c.FilterWindow
	if window == 0 {
		window = 2
	}
	var detectors []*Detector
	for _, b := range builtins {
		th, ok := c.Thresholds[b.name()]
		if !ok && b.method == Steganalysis {
			th, ok = DefaultCSPThreshold(), true
		}
		if !ok {
			continue
		}
		var s Scorer
		switch b.method {
		case Scaling:
			s, err = newScalingScorer(c.DstW, c.DstH, scaling.Options{Algorithm: alg}, b.metric)
		case Filtering:
			s, err = NewFilteringScorer(window, b.metric)
		default:
			s = NewStegScorer(c.Steg)
		}
		if err != nil {
			return nil, err
		}
		d, err := NewDetector(s, th)
		if err != nil {
			return nil, err
		}
		detectors = append(detectors, d)
	}
	return NewEnsemble(detectors...)
}

// MatchModels returns the known CNN model families (Table 1) whose input
// geometry is within tol pixels of (w, h) — the forensic step that turns a
// recovered attack-target size into "which deployed model was the attacker
// aiming at".
func MatchModels(w, h, tol int) []ModelInputSize {
	var out []ModelInputSize
	for _, m := range ModelInputSizes() {
		dw := m.W - w
		if dw < 0 {
			dw = -dw
		}
		dh := m.H - h
		if dh < 0 {
			dh = -dh
		}
		if dw <= tol && dh <= tol {
			out = append(out, m)
		}
	}
	return out
}
