// Command decamouflage classifies images as benign or image-scaling
// attacks.
//
// The steganalysis method (CSP) runs with no calibration, under the
// paper's fixed CSP >= 2 rule. A calibration file (produced by
// cmd/calibrate) adds every method it holds a threshold for, and its
// steganalysis/CSP threshold, when present, replaces the fixed rule.
// Alternatively -system loads a full SystemConfig (cmd/calibrate
// -system-out), which also carries persisted observability settings;
// individual obs flags override the config, while -dst, -alg and
// -calibration are refused alongside it. Either way detect.BuildSystem
// builds one ensemble for the run, so -calibration and the equivalent
// -system config classify identically, and -v lists the methods in
// canonical order: scaling, filtering, steganalysis.
//
// Usage:
//
//	decamouflage -dst 224x224 image.png ...
//	decamouflage -dst 224x224 -calibration cal.json -alg bilinear image.png
//	decamouflage -dst 32x32 -dir ./uploads -json
//	decamouflage -dst 32x32 -calibration cal.json -v -metrics-out=- image.png
//	decamouflage -system sys.json -httpdebug localhost:6060 -dir ./uploads
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"decamouflage/internal/cliutil"
	"decamouflage/internal/detect"
	"decamouflage/internal/imgcore"
	"decamouflage/internal/obs"
	"decamouflage/internal/steg"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "decamouflage:", err)
		os.Exit(1)
	}
}

type result struct {
	Path    string  `json:"path"`
	Attack  bool    `json:"attack"`
	Votes   int     `json:"votes"`
	Methods int     `json:"methods"`
	CSP     float64 `json:"csp"`
	Detail  string  `json:"detail,omitempty"`
	// TargetEstimate is the forensic estimate of the attacker's intended
	// model-input geometry ("WxH"), present only for flagged images whose
	// spectrum shows measurable replicas.
	TargetEstimate string `json:"target_estimate,omitempty"`

	// verdict feeds the -v report; it stays out of the JSON output.
	verdict *detect.EnsembleVerdict
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("decamouflage", flag.ContinueOnError)
	var (
		dst      = fs.String("dst", "224x224", "model input geometry WxH (the protected scaler's output)")
		alg      = fs.String("alg", "bilinear", "scaling algorithm used by the protected pipeline")
		calPath  = fs.String("calibration", "", "calibration JSON from cmd/calibrate (enables scaling+filtering methods)")
		sysPath  = fs.String("system", "", "system config JSON from cmd/calibrate -system (instead of -dst/-alg/-calibration)")
		dir      = fs.String("dir", "", "scan every PNG/JPEG in a directory")
		asJSON   = fs.Bool("json", false, "emit JSON lines")
		strictly = fs.Bool("strict", false, "exit nonzero when any attack is detected")

		verbose    = fs.Bool("v", false, "print per-method scores, thresholds and the stage timeline")
		traceFlag  = fs.Bool("trace", false, "print the span timeline of every image")
		metricsOut = fs.String("metrics-out", "", `dump metrics on exit to this file ("-" for stdout)`)
		metricsFmt = fs.String("metrics-format", "", "metrics dump format: json (default) or prom")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit")
		httpDebug  = fs.String("httpdebug", "", "serve /healthz, /metrics, /debug/events and /debug/pprof on this address")

		eventsOut = fs.String("events-out", "", `dump flight-recorder events as NDJSON on exit ("-" for stdout)`)
		eventsBuf = fs.Int("events-buffer", 0, "flight-recorder ring capacity (implies recording; default 1024)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sysPath != "" {
		// The config names the geometry, the kernel and the thresholds, so
		// a run never has two sources for them.
		var clash []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "calibration", "dst", "alg":
				clash = append(clash, "-"+f.Name)
			}
		})
		if len(clash) > 0 {
			return fmt.Errorf("usage: -system replaces %s; give one or the other", strings.Join(clash, ", "))
		}
	}
	paths := fs.Args()
	if *dir != "" {
		entries, err := os.ReadDir(*dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			ext := strings.ToLower(filepath.Ext(e.Name()))
			if ext == ".png" || ext == ".jpg" || ext == ".jpeg" {
				paths = append(paths, filepath.Join(*dir, e.Name()))
			}
		}
	}
	if len(paths) == 0 {
		return fmt.Errorf("no images given (pass files or -dir)")
	}

	var sysCfg *detect.SystemConfig
	if *sysPath != "" {
		data, err := os.ReadFile(*sysPath)
		if err != nil {
			return err
		}
		sysCfg, err = detect.UnmarshalSystemConfig(data)
		if err != nil {
			return err
		}
	}
	// Without -system the flags and the calibration describe the config.
	cfg, detail := sysCfg, ""
	if cfg == nil {
		dstW, dstH, err := cliutil.ParseSize(*dst)
		if err != nil {
			return err
		}
		cfg = &detect.SystemConfig{DstW: dstW, DstH: dstH, Algorithm: *alg}
		if *calPath != "" {
			cal, err := cliutil.LoadCalibration(*calPath)
			if err != nil {
				return err
			}
			cfg.Thresholds = cal.Thresholds
		} else {
			detail = ", steganalysis only"
		}
	}

	// Observability: the persisted config is the base, flags win.
	settings := obsSettings(sysCfg, obs.Settings{
		MetricsOut:    *metricsOut,
		MetricsFormat: *metricsFmt,
		CPUProfile:    *cpuProfile,
		MemProfile:    *memProfile,
		DebugAddr:     *httpDebug,
		EventsOut:     *eventsOut,
		EventBuffer:   *eventsBuf,
	})
	sess, err := settings.Apply()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := sess.Close(); err == nil {
			err = cerr
		}
	}()
	if addr := sess.DebugAddr(); addr != "" {
		fmt.Fprintln(os.Stderr, "decamouflage: debug server on http://"+addr)
	}

	// One ensemble serves every image: the scaling method sizes its round
	// trip to each input, so nothing depends on the input geometry.
	ens, err := detect.BuildSystem(cfg)
	if err != nil {
		return err
	}
	detectors := ens.Detectors()

	ctx := context.Background()
	attacks := 0
	for _, p := range paths {
		img, err := imgcore.Load(p)
		if err != nil {
			return err
		}
		ictx := ctx
		var tr *obs.Trace
		if *verbose || *traceFlag {
			ictx, tr = obs.WithTrace(ctx, "classify "+filepath.Base(p))
		}
		res, err := classify(ictx, img, ens, detail)
		tr.End()
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		res.Path = p
		if res.Attack {
			attacks++
		}
		if *asJSON {
			data, err := json.Marshal(res)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, string(data))
		} else {
			label := "BENIGN"
			if res.Attack {
				label = "ATTACK"
			}
			extra := res.Detail
			if res.TargetEstimate != "" {
				extra += ", attacker target ~" + res.TargetEstimate
			}
			fmt.Fprintf(out, "%-6s %s (votes %d/%d, CSP=%.0f%s)\n",
				label, p, res.Votes, res.Methods, res.CSP, extra)
		}
		if *verbose {
			if err := printVerbose(out, detectors, res.verdict); err != nil {
				return err
			}
		}
		if tr != nil {
			if err := tr.Render(out); err != nil {
				return err
			}
		}
	}
	if *strictly && attacks > 0 {
		return fmt.Errorf("%d attack image(s) detected", attacks)
	}
	return nil
}

// obsSettings merges the CLI observability flags over the system config's
// persisted settings; any flag given on the command line wins.
func obsSettings(cfg *detect.SystemConfig, flags obs.Settings) obs.Settings {
	var s obs.Settings
	if cfg != nil && cfg.Obs != nil {
		s = *cfg.Obs
	}
	if flags.MetricsOut != "" {
		s.MetricsOut = flags.MetricsOut
	}
	if flags.MetricsFormat != "" {
		s.MetricsFormat = flags.MetricsFormat
	}
	if flags.CPUProfile != "" {
		s.CPUProfile = flags.CPUProfile
	}
	if flags.MemProfile != "" {
		s.MemProfile = flags.MemProfile
	}
	if flags.DebugAddr != "" {
		s.DebugAddr = flags.DebugAddr
	}
	if flags.EventsOut != "" {
		s.EventsOut = flags.EventsOut
	}
	if flags.EventBuffer > 0 {
		s.EventBuffer = flags.EventBuffer
	}
	return s
}

// classify majority-votes the ensemble over one image and, for flagged
// images, estimates the attacker's target geometry.
func classify(ctx context.Context, img *imgcore.Image, ens *detect.Ensemble, detail string) (*result, error) {
	v, err := ens.Detect(ctx, img)
	if err != nil {
		return nil, err
	}
	res := &result{
		Attack: v.Attack, Votes: v.Votes, Methods: len(v.Verdicts),
		Detail: detail, verdict: v,
	}
	for _, verdict := range v.Verdicts {
		if verdict.Method == "steganalysis/CSP" {
			res.CSP = verdict.Score
		}
	}
	if v.Attack {
		if w, h, ok := steg.EstimateTargetSize(img, steg.Options{}); ok {
			res.TargetEstimate = fmt.Sprintf("%dx%d", w, h)
		}
	}
	return res, nil
}

// printVerbose writes the per-method breakdown: score, the threshold the
// detector applied, and each method's decision. Verdicts come in detector
// order.
func printVerbose(out io.Writer, detectors []*detect.Detector, v *detect.EnsembleVerdict) error {
	for i, vd := range v.Verdicts {
		th := detectors[i].Threshold()
		cls := "benign"
		if vd.Attack {
			cls = "attack"
		}
		if _, err := fmt.Fprintf(out, "  %-20s score %-14.6g threshold %s %-12.6g -> %s\n",
			vd.Method, vd.Score, dirSymbol(th.Direction), th.Value, cls); err != nil {
			return err
		}
	}
	return nil
}

// dirSymbol renders a threshold direction as the comparison the detector
// applies to the score.
func dirSymbol(d detect.Direction) string {
	switch d {
	case detect.Above:
		return ">="
	case detect.Below:
		return "<="
	default:
		return "?"
	}
}
