// Command perfbench is the repository's end-to-end benchmark: bytes (or
// decoded tensors) in, ensemble verdict out, for one named workload and
// seed. It generates every input from the seed before any clock starts,
// times the program's public entry points in a single-caller closed loop,
// checks every verdict against a replica built from the layers' public
// calls, and prints each metric by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (tracing off). With
// -trace 1 they are the per-layer ledger: the run repeats set-up, measures
// a third of its time untraced and the rest with spans around every call
// into a layer, and writes the spans as NDJSON under .bench_build/traces.
//
// Usage (see run.sh, which builds it first):
//
//	perfbench --workload gateway-png128 --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"decamouflage/internal/benchfmt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp records where and how a result was produced.
type stamp struct {
	benchfmt.Environment
	NProc    int    `json:"nproc"`
	Seed     int64  `json:"seed"`
	Tags     string `json:"tags"`
	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Int64("seed", 1, "input generation seed")
	seconds := fs.Int("seconds", 10, "measured time per run, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer ledger from a traced run")
	traceOut := fs.String("trace-out", "", "span NDJSON path for -trace 1 (default .bench_build/traces/<workload>-seed<n>.ndjson)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	st := environment(wl.name, *seed, *trace == 1)
	env, err := json.Marshal(st)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", wl.name, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "env %s\n", env)

	t := time.Now()
	in, err := generate(wl.spec, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: generate inputs:", err)
		return 1
	}
	fmt.Fprintf(stdout, "phase generate: pool=%d holdout=%d requests=%d in %.2fs (untimed)\n",
		len(in.Pool), len(in.Holdout), len(in.Order), time.Since(t).Seconds())

	d := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 1 {
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.ndjson", wl.name, *seed))
		}
		res, err = runTraced(context.Background(), wl, in, d, stdout, path, st)
	} else {
		res, err = runEndToEnd(context.Background(), wl, in, d, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "metric %-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// summarize prints the phase counts and the first failures, and folds the
// counts into the result.
func summarize(stdout io.Writer, r *runner, res *result, phases ...*phase) {
	for _, ph := range phases {
		fmt.Fprintf(stdout, "phase %s: sent=%d succeeded=%d failed=%d\n", ph.name, ph.sent, ph.succeeded, ph.failed)
		res.Attempted += ph.sent
		res.Failed += ph.failed
	}
	for _, e := range r.errs {
		fmt.Fprintln(stdout, "failure:", e)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if res.Attempted > 0 {
		fmt.Fprintf(stdout, "error_rate %.6g (%d of %d operations failed)\n",
			float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	}
}

// runEndToEnd measures the end-to-end metrics with tracing off.
func runEndToEnd(ctx context.Context, wl workload, in *inputs, d time.Duration, stdout io.Writer) (*result, error) {
	r, err := newRunner(ctx, wl, in, nil)
	if err != nil {
		return nil, err
	}
	setupPh, measurePh, verifyPh := &phase{name: "setup"}, &phase{name: "measure"}, &phase{name: "verify"}
	r.heap.reset()
	ens, err := r.setup(setupPh)
	if err != nil {
		return nil, err
	}
	l := r.measure(ens, measurePh, d, wl.minCalls, false)
	accuracy := r.verify(ens, verifyPh)
	fmt.Fprintf(stdout, "measured %d calls, %d images, %d windows of %d calls\n",
		len(l.lats), l.images, len(l.ips), wl.window)

	res := &result{Metrics: map[string]metric{
		"setup_s":        {median(r.setupS), "s"},
		"latency_p50_ms": {median(l.lats), "ms"},
		"latency_p99_ms": {windowedP99(l.lats), "ms"},
		"throughput_ips": {median(l.ips), "images/s"},
		"peak_heap_mb":   {max(median(r.setupHeapMB), median(l.heapMB)), "MB"},
		"accuracy":       {accuracy, "ratio"},
	}}
	summarize(stdout, r, res, setupPh, measurePh, verifyPh)
	// The error rate is 0 on a correct run, and a benchmark metric must
	// never be 0, so the result carries its complement.
	res.Metrics["success_rate"] = metric{1 - float64(res.Failed)/float64(res.Attempted), "ratio"}
	return res, nil
}

// layerSpans are the spans around calls into each layer, reported as
// <name>.calls plus the per-call medians below.
var layerSpans = []string{
	"imgcore.decode", "imgcore.to_u8", "scaling.resize", "filtering.minimum",
	"metrics.mse", "metrics.ssim", "fourier.spectrum", "steg.analyze",
	"detect.detect", "detect.batch", "detect.calibrate",
}

// runTraced measures the per-layer ledger: set-up, a third of d untraced
// (the baseline for the tracing overhead and the window of the GC
// deltas), then the rest with spans and the replica after every image.
func runTraced(ctx context.Context, wl workload, in *inputs, d time.Duration, stdout io.Writer, path string, st stamp) (*result, error) {
	rec := NewRecorder()
	r, err := newRunner(ctx, wl, in, rec)
	if err != nil {
		return nil, err
	}
	setupPh, plainPh, tracedPh, verifyPh := &phase{name: "setup"}, &phase{name: "measure-untraced"},
		&phase{name: "measure-traced"}, &phase{name: "verify"}
	r.heap.reset()
	ens, err := r.setup(setupPh)
	if err != nil {
		return nil, err
	}
	g0 := readGC()
	plain := r.measure(ens, plainPh, d/3, 0, false)
	g1 := readGC()
	traced := r.measure(ens, tracedPh, d-d/3, 0, true)
	r.verify(ens, verifyPh)

	byName := map[string][]Span{}
	for _, s := range rec.Spans() {
		byName[s.Name] = append(byName[s.Name], s)
	}
	msOf := func(name string) metric {
		var xs []float64
		for _, s := range byName[name] {
			xs = append(xs, ms(s.Dur()))
		}
		return metric{median(xs), "ms"}
	}
	allocsOf := func(name string) metric {
		var xs []float64
		for _, s := range byName[name] {
			if s.Allocs >= 0 {
				xs = append(xs, float64(s.Allocs))
			}
		}
		return metric{median(xs), "count"}
	}
	m := map[string]metric{
		"imgcore.decode_ms":        msOf("imgcore.decode"),
		"imgcore.decode_allocs":    allocsOf("imgcore.decode"),
		"imgcore.to_u8_ms":         msOf("imgcore.to_u8"),
		"scaling.resize_ms":        msOf("scaling.resize"),
		"scaling.resize_allocs":    allocsOf("scaling.resize"),
		"filtering.minimum_ms":     msOf("filtering.minimum"),
		"metrics.mse_ms":           msOf("metrics.mse"),
		"metrics.ssim_ms":          msOf("metrics.ssim"),
		"metrics.ssim_allocs":      allocsOf("metrics.ssim"),
		"fourier.spectrum_ms":      msOf("fourier.spectrum"),
		"fourier.spectrum_allocs":  allocsOf("fourier.spectrum"),
		"steg.analyze_ms":          msOf("steg.analyze"),
		"steg.analyze_allocs":      allocsOf("steg.analyze"),
		"detect.detect_ms":         msOf("detect.detect"),
		"detect.detect_allocs":     allocsOf("detect.detect"),
		"detect.overlap":           {median(r.overlap), "ratio"},
		"detect.batch_speedup":     {median(r.batchSpeedup), "ratio"},
		"detect.calibrate_s":       {median(r.calibS), "s"},
		"detect.cold_ms":           {median(r.coldMS), "ms"},
		"runtime.gc_cpu_share":     {0, "ratio"},
		"runtime.gc_per_1k_images": {0, "count"},
		"trace.overhead_pct":       {100 * (median(traced.lats)/median(plain.lats) - 1), "%"},
	}
	if cpu := g1.totalCPU - g0.totalCPU; cpu > 0 {
		m["runtime.gc_cpu_share"] = metric{(g1.gcCPU - g0.gcCPU) / cpu, "ratio"}
	}
	if plain.images > 0 {
		m["runtime.gc_per_1k_images"] = metric{1000 * (g1.cycles - g0.cycles) / float64(plain.images), "count"}
	}
	for _, n := range layerSpans {
		m[n+".calls"] = metric{float64(len(byName[n])), "count"}
	}
	res := &result{Metrics: m}
	summarize(stdout, r, res, setupPh, plainPh, tracedPh, verifyPh)
	printLedger(stdout, rec.Spans())

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := rec.WriteNDJSON(f, map[string]any{"env": st}); err != nil {
		f.Close()
		return nil, fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(stdout, "spans: %d written to %s\n", len(rec.Spans()), path)
	return res, nil
}

// printLedger prints, per span name, the call count and the median
// duration and self time per call.
func printLedger(w io.Writer, spans []Span) {
	self := SelfTimes(spans)
	type row struct{ durs, selfs []float64 }
	rows := map[string]*row{}
	var names []string
	for _, s := range spans {
		rw, ok := rows[s.Name]
		if !ok {
			rw = &row{}
			rows[s.Name] = rw
			names = append(names, s.Name)
		}
		rw.durs = append(rw.durs, ms(s.Dur()))
		rw.selfs = append(rw.selfs, ms(self[s.ID]))
	}
	sort.Strings(names)
	fmt.Fprintf(w, "ledger %-20s %8s %12s %12s\n", "span", "calls", "p50_ms", "self_p50_ms")
	for _, n := range names {
		rw := rows[n]
		fmt.Fprintf(w, "ledger %-20s %8d %12.4f %12.4f\n", n, len(rw.durs), median(rw.durs), median(rw.selfs))
	}
}

// environment stamps a result with the benchfmt.Environment fields plus
// the CPU count, seed and build tags.
func environment(workload string, seed int64, trace bool) stamp {
	st := stamp{
		Environment: benchfmt.Environment{
			GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(),
			GoVersion: runtime.Version(),
		},
		NProc: runtime.NumCPU(), Seed: seed, Workload: workload, Trace: trace,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-tags" {
				st.Tags = s.Value
			}
		}
	}
	return st
}

// cpuModel returns the processor model string from /proc/cpuinfo, or ""
// where the platform does not expose one.
func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
