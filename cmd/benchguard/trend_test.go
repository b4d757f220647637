package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"decamouflage/internal/benchfmt"
)

// writeTrendSnapshot marshals a Document into dir as BENCH_<date>.json.
func writeTrendSnapshot(t *testing.T, dir string, doc benchfmt.Document) {
	t.Helper()
	buf, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_"+doc.Date+".json"), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func result(name string, ns float64) benchfmt.Result {
	return benchfmt.Result{Name: name, Iterations: 10, NsPerOp: ns, BytesPerOp: -1, AllocsPerOp: -1}
}

func TestTrendHealthyTrajectory(t *testing.T) {
	dir := t.TempDir()
	writeTrendSnapshot(t, dir, benchfmt.Document{Date: "2026-08-01", Benchmarks: []benchfmt.Result{
		result("BenchmarkFFT2D256-8", 2_000_000),
	}})
	writeTrendSnapshot(t, dir, benchfmt.Document{Date: "2026-08-09", Benchmarks: []benchfmt.Result{
		result("BenchmarkFFT2D256-8", 1_900_000),
		// A kernel new in the latest snapshot has itself as best: delta 0.
		result("BenchmarkResizeFixed256-8", 400_000),
	}})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-trend", dir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "BenchmarkFFT2D256 latest 1.90ms, best 1.90ms") {
		t.Errorf("report: %s", stdout.String())
	}
}

func TestTrendRegressionFails(t *testing.T) {
	dir := t.TempDir()
	writeTrendSnapshot(t, dir, benchfmt.Document{Date: "2026-08-01", Benchmarks: []benchfmt.Result{
		result("BenchmarkFFT2D256-8", 2_000_000),
	}})
	writeTrendSnapshot(t, dir, benchfmt.Document{Date: "2026-08-09", Benchmarks: []benchfmt.Result{
		result("BenchmarkFFT2D256-8", 2_300_000), // +15% vs best
	}})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-trend", dir}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stdout: %s", code, stdout.String())
	}
	if !strings.Contains(stderr.String(), "BenchmarkFFT2D256 regressed +15.0%") {
		t.Errorf("stderr: %s", stderr.String())
	}
	// A looser budget tolerates the same history.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-trend", dir, "-max-regression-pct", "20"}, &stdout, &stderr); code != 0 {
		t.Fatalf("loose budget: exit %d, stderr: %s", code, stderr.String())
	}
}

func TestTrendReferenceBenchmarksNotGated(t *testing.T) {
	dir := t.TempDir()
	writeTrendSnapshot(t, dir, benchfmt.Document{Date: "2026-08-01", Benchmarks: []benchfmt.Result{
		result("BenchmarkFFT2D256Unplanned-8", 4_000_000),
		result("BenchmarkEnsembleLegacy-8", 13_000_000),
	}})
	// Both references regress wildly; only tracked kernels gate, and a
	// latest snapshot made of references alone is a configuration error.
	writeTrendSnapshot(t, dir, benchfmt.Document{Date: "2026-08-09", Benchmarks: []benchfmt.Result{
		result("BenchmarkFFT2D256Unplanned-8", 9_000_000),
		result("BenchmarkEnsembleLegacy-8", 30_000_000),
	}})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-trend", dir}, &stdout, &stderr)
	if code != 2 || !strings.Contains(stderr.String(), "no tracked kernels") {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	// With one tracked kernel alongside, the regressing references stay
	// invisible to the gate.
	writeTrendSnapshot(t, dir, benchfmt.Document{Date: "2026-08-09", Benchmarks: []benchfmt.Result{
		result("BenchmarkFFT2D256Unplanned-8", 9_000_000),
		result("BenchmarkEnsembleLegacy-8", 30_000_000),
		result("BenchmarkFFT2D256-8", 1_900_000),
	}})
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-trend", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
}

func TestTrendMachineDriftNormalized(t *testing.T) {
	dir := t.TempDir()
	// Every benchmark — tracked and reference alike — runs 25% slower in
	// the latest snapshot: that is the machine, not the code. The shared
	// reference baselines calibrate the drift, so the gate passes.
	writeTrendSnapshot(t, dir, benchfmt.Document{Date: "2026-08-01", Benchmarks: []benchfmt.Result{
		result("BenchmarkFFT2D256-8", 2_000_000),
		result("BenchmarkFFT2D256Unplanned-8", 4_000_000),
		result("BenchmarkEnsembleLegacy-8", 12_000_000),
	}})
	writeTrendSnapshot(t, dir, benchfmt.Document{Date: "2026-08-09", Benchmarks: []benchfmt.Result{
		result("BenchmarkFFT2D256-8", 2_500_000), // +25% raw — pure drift
		result("BenchmarkFFT2D256Unplanned-8", 5_000_000),
		result("BenchmarkEnsembleLegacy-8", 15_000_000),
	}})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-trend", dir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "2026-08-01 machine drift ×1.25") {
		t.Errorf("drift factor not reported: %s", stdout.String())
	}

	// A kernel regressing beyond the drift still fails: +50% raw against
	// ×1.25 drift is a real +20%.
	writeTrendSnapshot(t, dir, benchfmt.Document{Date: "2026-08-09", Benchmarks: []benchfmt.Result{
		result("BenchmarkFFT2D256-8", 3_000_000),
		result("BenchmarkFFT2D256Unplanned-8", 5_000_000),
		result("BenchmarkEnsembleLegacy-8", 15_000_000),
	}})
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-trend", dir}, &stdout, &stderr); code != 1 {
		t.Fatalf("real regression under drift: exit %d, stdout: %s", code, stdout.String())
	}
	if !strings.Contains(stderr.String(), "BenchmarkFFT2D256 regressed +20.0%") {
		t.Errorf("stderr: %s", stderr.String())
	}
}

func TestTrendCrossMachineSnapshotExcluded(t *testing.T) {
	dir := t.TempDir()
	fast := &benchfmt.Environment{GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 64, CPU: "Big Iron"}
	ref := &benchfmt.Environment{GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 1, CPU: "Reference"}
	// The big machine's 1ms would be an unbeatable "best" if mixed in.
	writeTrendSnapshot(t, dir, benchfmt.Document{Date: "2026-08-01", Env: fast, Benchmarks: []benchfmt.Result{
		result("BenchmarkFFT2D256-8", 1_000_000),
	}})
	// A legacy snapshot without env stays comparable (assumed reference).
	writeTrendSnapshot(t, dir, benchfmt.Document{Date: "2026-08-05", Benchmarks: []benchfmt.Result{
		result("BenchmarkFFT2D256-8", 1_950_000),
	}})
	writeTrendSnapshot(t, dir, benchfmt.Document{Date: "2026-08-09", Env: ref, Benchmarks: []benchfmt.Result{
		result("BenchmarkFFT2D256-8", 2_000_000),
	}})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-trend", dir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "excluding") || !strings.Contains(out, `cpu="Big Iron"`) {
		t.Errorf("cross-machine snapshot not flagged: %s", out)
	}
	if !strings.Contains(out, "best 1.95ms") {
		t.Errorf("excluded snapshot leaked into best: %s", out)
	}
}

func TestTrendWriteMarkdown(t *testing.T) {
	dir := t.TempDir()
	env := &benchfmt.Environment{GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 1, CPU: "Reference", GoVersion: "go1.24.0"}
	writeTrendSnapshot(t, dir, benchfmt.Document{Date: "2026-08-05", Benchmarks: []benchfmt.Result{
		result("BenchmarkResize256Serial-8", 600_000),
	}})
	writeTrendSnapshot(t, dir, benchfmt.Document{Date: "2026-08-09", Env: env, Benchmarks: []benchfmt.Result{
		result("BenchmarkResize256Serial-8", 595_000),
		result("BenchmarkMinFilterU8256-8", 387_000),
		result("BenchmarkMinFilterFloat256-8", 595_000),
	}})
	md := filepath.Join(dir, "README.md")
	const shell = "# Bench\n\nintro\n\n<!-- benchtrend:begin -->\nstale\n<!-- benchtrend:end -->\n\noutro\n"
	if err := os.WriteFile(md, []byte(shell), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-trend", dir, "-trend-write", md}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	buf, err := os.ReadFile(md)
	if err != nil {
		t.Fatal(err)
	}
	got := string(buf)
	for _, want := range []string{
		"# Bench", "outro", // text outside the markers survives
		"| MinFilterU8256 |", "| Resize256Serial |",
		"| 2026-08-05 | 2026-08-09 |",
		"uint8 vHGW min filter | 595.0µs | 387.0µs | 1.54×",
		"linux/amd64 maxprocs=1", "go1.24.0",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("rendered file lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "stale") {
		t.Error("old region content survived the rewrite")
	}
	// A second run over identical snapshots is byte-stable — the property
	// the CI freshness gate (git diff --exit-code) relies on.
	if code := run([]string{"-trend", dir, "-trend-write", md}, &stdout, &stderr); code != 0 {
		t.Fatalf("rewrite exit %d, stderr: %s", code, stderr.String())
	}
	again, err := os.ReadFile(md)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != got {
		t.Error("rewriting from unchanged snapshots changed the file")
	}
}

func TestTrendWriteErrors(t *testing.T) {
	dir := t.TempDir()
	writeTrendSnapshot(t, dir, benchfmt.Document{Date: "2026-08-09", Benchmarks: []benchfmt.Result{
		result("BenchmarkFFT2D256-8", 1_900_000),
	}})
	// Target without markers.
	md := filepath.Join(dir, "README.md")
	if err := os.WriteFile(md, []byte("no markers here\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-trend", dir, "-trend-write", md}, &stdout, &stderr)
	if code != 2 || !strings.Contains(stderr.String(), "missing") {
		t.Fatalf("markerless target: exit %d, stderr: %s", code, stderr.String())
	}
	// Missing target file.
	stderr.Reset()
	code = run([]string{"-trend", dir, "-trend-write", filepath.Join(dir, "nope.md")}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("missing target: exit %d", code)
	}
	// Empty snapshot directory.
	stderr.Reset()
	code = run([]string{"-trend", t.TempDir()}, &stdout, &stderr)
	if code != 2 || !strings.Contains(stderr.String(), "no BENCH_*.json") {
		t.Fatalf("empty dir: exit %d, stderr: %s", code, stderr.String())
	}
}
