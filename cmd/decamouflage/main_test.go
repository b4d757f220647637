package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"decamouflage/internal/attack"
	"decamouflage/internal/cliutil"
	"decamouflage/internal/dataset"
	"decamouflage/internal/detect"
	"decamouflage/internal/obs"
	"decamouflage/internal/scaling"
)

// writeFixtures creates a benign and an attack PNG plus a calibration file,
// returning their paths.
func writeFixtures(t *testing.T) (benignPath, attackPath, calPath, dir string) {
	t.Helper()
	dir = t.TempDir()
	g, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.CaltechLike, W: 96, H: 96, C: 3, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	tg, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.CaltechLike, W: 24, H: 24, C: 3, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	scaler, err := scaling.NewScaler(96, 96, 24, 24, scaling.Options{Algorithm: scaling.Bilinear})
	if err != nil {
		t.Fatal(err)
	}
	benign := g.Image(0)
	res, err := attack.Craft(benign, tg.Image(0), attack.Config{Scaler: scaler, Eps: 2})
	if err != nil {
		t.Fatal(err)
	}
	benignPath = filepath.Join(dir, "benign.png")
	attackPath = filepath.Join(dir, "attack.png")
	if err := benign.SavePNG(benignPath); err != nil {
		t.Fatal(err)
	}
	if err := res.Attack.SavePNG(attackPath); err != nil {
		t.Fatal(err)
	}
	// Cheap calibration: score a few benign images black-box.
	ss, err := detect.NewScalingScorer(scaler, detect.MSE)
	if err != nil {
		t.Fatal(err)
	}
	fsx, err := detect.NewFilteringScorer(2, detect.SSIM)
	if err != nil {
		t.Fatal(err)
	}
	var sb, fb []float64
	for i := 1; i < 9; i++ {
		v, err := ss.Score(g.Image(i))
		if err != nil {
			t.Fatal(err)
		}
		sb = append(sb, v)
		v, err = fsx.Score(g.Image(i))
		if err != nil {
			t.Fatal(err)
		}
		fb = append(fb, v)
	}
	sth, err := detect.CalibrateBlackBox(sb, 10, detect.Above)
	if err != nil {
		t.Fatal(err)
	}
	fth, err := detect.CalibrateBlackBox(fb, 10, detect.Below)
	if err != nil {
		t.Fatal(err)
	}
	cal := detect.NewCalibration("black-box")
	cal.Set("scaling/MSE", sth)
	cal.Set("filtering/SSIM", fth)
	calPath = filepath.Join(dir, "cal.json")
	if err := cliutil.SaveCalibration(calPath, cal); err != nil {
		t.Fatal(err)
	}
	return benignPath, attackPath, calPath, dir
}

func TestRunStegOnly(t *testing.T) {
	benign, atk, _, _ := writeFixtures(t)
	var out strings.Builder
	if err := run([]string{"-dst", "24x24", benign, atk}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("output lines: %q", out.String())
	}
	if !strings.HasPrefix(lines[0], "BENIGN") {
		t.Errorf("benign line: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "ATTACK") {
		t.Errorf("attack line: %s", lines[1])
	}
}

func TestRunWithCalibrationAndJSON(t *testing.T) {
	benign, atk, cal, _ := writeFixtures(t)
	var out strings.Builder
	if err := run([]string{"-dst", "24x24", "-calibration", cal, "-json", benign, atk}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, `"attack":false`) || !strings.Contains(got, `"attack":true`) {
		t.Errorf("json output: %s", got)
	}
	if !strings.Contains(got, `"methods":3`) {
		t.Errorf("expected 3-method ensemble: %s", got)
	}
}

func TestRunDirScan(t *testing.T) {
	_, _, _, dir := writeFixtures(t)
	var out strings.Builder
	if err := run([]string{"-dst", "24x24", "-dir", dir}, &out); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(out.String(), "\n"); n != 2 {
		t.Errorf("dir scan found %d images, want 2: %s", n, out.String())
	}
}

func TestRunStrictMode(t *testing.T) {
	_, atk, _, _ := writeFixtures(t)
	var out strings.Builder
	if err := run([]string{"-dst", "24x24", "-strict", atk}, &out); err == nil {
		t.Error("strict mode with attack returned nil error")
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-dst", "24x24"}, &out); err == nil {
		t.Error("no images accepted")
	}
	if err := run([]string{"-dst", "bogus", "x.png"}, &out); err == nil {
		t.Error("bad size accepted")
	}
	if err := run([]string{"-dst", "24x24", "-alg", "bogus", "x.png"}, &out); err == nil {
		t.Error("bad algorithm accepted")
	}
	if err := run([]string{"-dst", "24x24", "missing.png"}, &out); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"-dst", "24x24", "-calibration", "missing.json", "x.png"}, &out); err == nil {
		t.Error("missing calibration accepted")
	}
	if err := run([]string{"-dir", "/nonexistent-dir-xyz"}, &out); err == nil {
		t.Error("missing dir accepted")
	}
}

// requireObs skips the test when the binary was built with -tags noobs,
// and leaves recording disabled so run()'s settings decide.
func requireObs(t *testing.T) {
	t.Helper()
	obs.Enable()
	enabled := obs.Enabled()
	obs.Disable()
	if !enabled {
		t.Skip("observability compiled out (noobs)")
	}
	t.Cleanup(obs.Disable)
}

func TestRunVerboseAndMetrics(t *testing.T) {
	requireObs(t)
	benign, _, cal, dir := writeFixtures(t)
	metricsPath := filepath.Join(dir, "metrics.json")
	var out strings.Builder
	err := run([]string{"-dst", "24x24", "-calibration", cal, "-v",
		"-metrics-out", metricsPath, benign}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	// Per-method breakdown with thresholds and decisions.
	for _, want := range []string{
		"scaling/MSE", "filtering/SSIM", "steganalysis/CSP",
		"threshold >=", "threshold <=", "-> benign",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("verbose output missing %q:\n%s", want, got)
		}
	}
	// Stage timeline below the breakdown.
	for _, want := range []string{"classify benign.png", "ensemble.detect", "downscale", "minfilter", "csp"} {
		if !strings.Contains(got, want) {
			t.Errorf("timeline missing %q:\n%s", want, got)
		}
	}
	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"fourier.plan.misses", "scaling.coeff.misses", "scaling.coeff.hits",
		"detect.ensemble.seconds", "parallel.for.calls",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics dump missing %q:\n%s", want, data)
		}
	}
}

func TestRunTraceOnly(t *testing.T) {
	requireObs(t)
	benign, _, _, _ := writeFixtures(t)
	var out strings.Builder
	if err := run([]string{"-dst", "24x24", "-trace", benign}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "classify benign.png") || !strings.Contains(got, "steganalysis/CSP") {
		t.Errorf("trace output missing timeline:\n%s", got)
	}
	if strings.Contains(got, "threshold >=") {
		t.Errorf("-trace alone printed the verbose breakdown:\n%s", got)
	}
}

// TestRunSystemConfig pins the -system path: the persisted config both
// builds the ensemble and activates its embedded observability settings.
func TestRunSystemConfig(t *testing.T) {
	requireObs(t)
	benign, atk, calPath, dir := writeFixtures(t)
	cal, err := cliutil.LoadCalibration(calPath)
	if err != nil {
		t.Fatal(err)
	}
	sth, _ := cal.Get("scaling/MSE")
	fth, _ := cal.Get("filtering/SSIM")
	metricsPath := filepath.Join(dir, "sys_metrics.json")
	cfg := &detect.SystemConfig{
		DstW: 24, DstH: 24, Algorithm: "bilinear",
		Thresholds: map[string]detect.Threshold{
			"scaling/MSE":    sth,
			"filtering/SSIM": fth,
		},
		Obs: &obs.Settings{MetricsOut: metricsPath},
	}
	data, err := detect.MarshalSystemConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sysPath := filepath.Join(dir, "sys.json")
	if err := os.WriteFile(sysPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-system", sysPath, "-v", benign, atk}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "votes") || !strings.Contains(got, "scaling/MSE") {
		t.Errorf("system run output:\n%s", got)
	}
	// The config's MetricsOut took effect with no metrics flag given.
	dump, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dump), "scaling.coeff.misses") {
		t.Errorf("metrics dump from config settings missing cache stats:\n%s", dump)
	}
	if err := run([]string{"-system", filepath.Join(dir, "nope.json"), benign}, &out); err == nil {
		t.Error("missing system config accepted")
	}
}

// TestRunSystemRejectsConfigFlags pins that -system refuses an explicitly
// set -calibration, -dst or -alg, naming each, instead of silently serving
// the config and ignoring the flag.
func TestRunSystemRejectsConfigFlags(t *testing.T) {
	benign, _, calPath, dir := writeFixtures(t)
	data, err := detect.MarshalSystemConfig(&detect.SystemConfig{DstW: 24, DstH: 24, Algorithm: "bilinear"})
	if err != nil {
		t.Fatal(err)
	}
	sysPath := filepath.Join(dir, "sys.json")
	if err := os.WriteFile(sysPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		flags []string
		want  string
	}{
		{[]string{"-calibration", calPath}, "-calibration"},
		{[]string{"-dst", "24x24"}, "-dst"},
		{[]string{"-alg", "bilinear"}, "-alg"},
		{[]string{"-dst", "32x32", "-alg", "bicubic", "-calibration", calPath}, "-alg, -calibration, -dst"},
	} {
		args := append([]string{"-system", sysPath}, tc.flags...)
		var out strings.Builder
		err := run(append(args, benign), &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want a usage error naming %s", tc.flags, err, tc.want)
		}
	}
	// Flags that do not describe the ensemble still combine with -system.
	var out strings.Builder
	if err := run([]string{"-system", sysPath, "-json", benign}, &out); err != nil {
		t.Errorf("-system with -json: %v", err)
	}
}

func TestRunProfileFlags(t *testing.T) {
	requireObs(t)
	benign, _, _, dir := writeFixtures(t)
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	var out strings.Builder
	err := run([]string{"-dst", "24x24", "-cpuprofile", cpu, "-memprofile", mem, benign}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// TestRunBadMetricsFormat pins that a dump failure at session close
// surfaces as the command's error.
func TestRunBadMetricsFormat(t *testing.T) {
	requireObs(t)
	benign, _, _, dir := writeFixtures(t)
	var out strings.Builder
	err := run([]string{"-dst", "24x24",
		"-metrics-out", filepath.Join(dir, "m.txt"), "-metrics-format", "bogus", benign}, &out)
	if err == nil || !strings.Contains(err.Error(), "metrics format") {
		t.Errorf("bad metrics format error = %v", err)
	}
}

// TestRunFlightRecorder pins the CLI's recording session: -events-out
// produces a non-empty NDJSON dump whose events carry the per-image
// wide-event fields.
func TestRunFlightRecorder(t *testing.T) {
	requireObs(t)
	benign, atk, _, dir := writeFixtures(t)
	evPath := filepath.Join(dir, "events.ndjson")
	var out strings.Builder
	err := run([]string{"-dst", "24x24", "-events-out", evPath, benign, atk}, &out)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := os.ReadFile(evPath)
	if err != nil {
		t.Fatal(err)
	}
	// One wide event per classified image, each traced and attributed.
	// (The root stage repeats the event name, so count NDJSON lines.)
	if got := strings.Count(strings.TrimRight(string(ev), "\n"), "\n") + 1; got != 2 {
		t.Errorf("events dump has %d detect events, want 2:\n%s", got, ev)
	}
	for _, want := range []string{`"trace_id":"`, `"verdict":"`, `"methods":[`, `"stages":[`} {
		if !strings.Contains(string(ev), want) {
			t.Errorf("events dump missing %q:\n%s", want, ev)
		}
	}
}

// methodLines keeps the verdict summaries and the -v per-method lines of
// a run's output, dropping the timing-dependent stage timeline.
func methodLines(out string) []string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "BENIGN") || strings.HasPrefix(line, "ATTACK") || strings.Contains(line, " threshold ") {
			keep = append(keep, line)
		}
	}
	return keep
}

// TestCalibrationAndSystemServeAlike pins that -calibration and the
// equivalent -system config build the same ensemble: every calibrated
// threshold, the steganalysis one included, is honoured by both, and -v
// lists the methods in canonical order. The images come in two
// geometries, so the scaling method serves inputs of any size from one
// ensemble.
func TestCalibrationAndSystemServeAlike(t *testing.T) {
	benign, atk, calPath, dir := writeFixtures(t)
	g, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.CaltechLike, W: 64, H: 48, C: 3, Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	small := filepath.Join(dir, "small.png")
	if err := g.Image(0).SavePNG(small); err != nil {
		t.Fatal(err)
	}
	cal, err := cliutil.LoadCalibration(calPath)
	if err != nil {
		t.Fatal(err)
	}
	cal.Set("steganalysis/CSP", detect.Threshold{Value: 100, Direction: detect.Above})
	cal.Set("scaling/PSNR", detect.Threshold{Value: 20, Direction: detect.Below})
	if err := cliutil.SaveCalibration(calPath, cal); err != nil {
		t.Fatal(err)
	}
	data, err := detect.MarshalSystemConfig(&detect.SystemConfig{
		DstW: 24, DstH: 24, Algorithm: "bilinear", Thresholds: cal.Thresholds,
	})
	if err != nil {
		t.Fatal(err)
	}
	sysPath := filepath.Join(dir, "sys.json")
	if err := os.WriteFile(sysPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	images := []string{benign, atk, small}
	var calOut, sysOut strings.Builder
	if err := run(append([]string{"-dst", "24x24", "-calibration", calPath, "-v"}, images...), &calOut); err != nil {
		t.Fatal(err)
	}
	if err := run(append([]string{"-system", sysPath, "-v"}, images...), &sysOut); err != nil {
		t.Fatal(err)
	}
	calLines, sysLines := methodLines(calOut.String()), methodLines(sysOut.String())
	if strings.Join(calLines, "\n") != strings.Join(sysLines, "\n") {
		t.Fatalf("-calibration and -system disagree:\n%s\n--- vs ---\n%s", strings.Join(calLines, "\n"), strings.Join(sysLines, "\n"))
	}
	// Three summaries of four methods each, in canonical order, with the
	// calibrated CSP rule in force.
	if len(calLines) != 3*5 {
		t.Fatalf("got %d summary and method lines, want 15:\n%s", len(calLines), strings.Join(calLines, "\n"))
	}
	order := []string{"scaling/MSE", "scaling/PSNR", "filtering/SSIM", "steganalysis/CSP"}
	for img := 0; img < 3; img++ {
		if !strings.Contains(calLines[img*5], "/4,") {
			t.Errorf("summary is not over 4 methods: %s", calLines[img*5])
		}
		for i, name := range order {
			if line := calLines[img*5+1+i]; !strings.HasPrefix(strings.TrimSpace(line), name+" ") {
				t.Errorf("method line %d of image %d = %q, want %s", i, img, line, name)
			}
		}
		if line := calLines[img*5+4]; !strings.Contains(line, "threshold >= 100") || !strings.HasSuffix(line, "-> benign") {
			t.Errorf("calibrated CSP rule not applied: %q", line)
		}
	}
}

// TestRunLegacySystemConfig pins that system configs written before keys
// left the format still load and serve: one carrying the source geometry
// (src_w/src_h), and one whose obs block names the retired tail-sampler
// and watchdog settings, which are ignored.
func TestRunLegacySystemConfig(t *testing.T) {
	benign, _, _, dir := writeFixtures(t)
	sysPath := filepath.Join(dir, "legacy.json")
	tracePath := filepath.Join(dir, "traces.ndjson")
	legacy := `{
  "src_w": 96,
  "src_h": 96,
  "dst_w": 24,
  "dst_h": 24,
  "algorithm": "bilinear",
  "thresholds": {
    "filtering/SSIM": {"value": 0.5, "direction": 2},
    "scaling/MSE": {"value": 500, "direction": 1},
    "steganalysis/CSP": {"value": 2, "direction": 1}
  }
}`
	if err := os.WriteFile(sysPath, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	legacyObs := `{
  "dst_w": 24,
  "dst_h": 24,
  "algorithm": "bilinear",
  "thresholds": {
    "filtering/SSIM": {"value": 0.5, "direction": 2},
    "scaling/MSE": {"value": 500, "direction": 1},
    "steganalysis/CSP": {"value": 2, "direction": 1}
  },
  "obs": {
    "trace_keep": 64,
    "trace_out": ` + strconv.Quote(tracePath) + `,
    "trace_sample": 0.25,
    "watchdog": true,
    "watchdog_interval_ms": 20
  }
}`
	obsPath := filepath.Join(dir, "legacy_obs.json")
	if err := os.WriteFile(obsPath, []byte(legacyObs), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{sysPath, obsPath} {
		var out strings.Builder
		if err := run([]string{"-system", path, "-json", benign}, &out); err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		if !strings.Contains(out.String(), `"methods":3`) {
			t.Errorf("%s did not serve the 3-method ensemble: %s", filepath.Base(path), out.String())
		}
	}
	if _, err := os.Stat(tracePath); !os.IsNotExist(err) {
		t.Errorf("retired trace_out key wrote %s (stat err %v)", tracePath, err)
	}
}
