package main

// Trend mode: instead of comparing two bench output files, walk every
// committed BENCH_*.json snapshot under a directory and fail when any
// tracked kernel's latest median ns/op regresses more than the budget
// against its best committed median — the perf trajectory may plateau
// but must not silently slide back. Past medians are machine-drift
// normalized first (see driftFactors): the shared reference baselines
// calibrate how fast the machine ran on each snapshot day, so a slow
// benchmarking day doesn't read as a regression. The mode also renders
// the per-kernel history table (plus the fast-path speedup table from
// the latest snapshot) between markers in a markdown file, so the
// committed README is provably generated from the committed snapshots.

import (
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"strings"

	"decamouflage/internal/benchfmt"
)

// trendBeginMarker/trendEndMarker delimit the generated region inside
// the -trend-write target. Everything between them is replaced on each
// run; CI's `git diff --exit-code` then enforces that the committed
// table matches the committed snapshots.
const (
	trendBeginMarker = "<!-- benchtrend:begin -->"
	trendEndMarker   = "<!-- benchtrend:end -->"
)

// referenceBench matches benchmarks that exist as comparison baselines —
// naive kernels, retained pre-optimization paths, float counterparts of
// integer fast paths. They appear in the speedup table but are not
// regression-gated: a "regression" in a reference is meaningless (no one
// ships it), and gating it would forbid ever simplifying baseline code.
// (CenteredSpectrumComplex256 is the complex-composition reference of the
// real-input CenteredSpectrumInto256; CenteredSpectrum256 measured that
// composition in the committed snapshots; BuildCoeff is the uncached
// construction CoeffFor's memoization exists to avoid.)
var referenceBench = regexp.MustCompile(`Naive|Unplanned|Legacy|PerColumn|Float256|CenteredSpectrum(Complex)?256|BuildCoeff`)

// speedupPairs names the fast path / reference pairs whose ratio the
// trajectory table reports from the latest snapshot. Pairs whose members
// are absent from the snapshot are skipped, so the tool keeps working on
// histories that predate a kernel.
var speedupPairs = []struct {
	fast, ref, label string
}{
	{"BenchmarkMinFilterU8256", "BenchmarkMinFilterFloat256", "uint8 vHGW min filter"},
	{"BenchmarkCoeffFor64to16", "BenchmarkBuildCoeff64to16", "memoized coefficient lookup"},
	{"BenchmarkFFT2DBlocked256", "BenchmarkFFT2DPerColumn256", "cache-blocked FFT columns"},
	{"BenchmarkCenteredSpectrumInto256", "BenchmarkCenteredSpectrumComplex256", "real-input centered spectrum"},
	{"BenchmarkEnsemblePipeline", "BenchmarkEnsembleLegacy", "stage-DAG ensemble"},
}

// runTrend is the -trend entry point. Exit codes match compare mode:
// 0 trajectory healthy, 1 a tracked kernel regressed over budget, 2 on
// unreadable snapshots or a -trend-write target without markers.
func runTrend(dir string, maxRegression float64, writePath string, stdout, stderr io.Writer) int {
	snaps, err := benchfmt.LoadSnapshots(dir)
	if err != nil {
		fmt.Fprintf(stderr, "benchguard: trend: %v\n", err)
		return 2
	}
	if len(snaps) == 0 {
		fmt.Fprintf(stderr, "benchguard: trend: no BENCH_*.json snapshots under %s\n", dir)
		return 2
	}
	comparable, excluded := splitByEnvironment(snaps)
	for _, s := range excluded {
		fmt.Fprintf(stdout, "benchguard: trend: excluding %s: environment %s differs from latest\n",
			s.Path, s.Doc.Env.Fingerprint())
	}
	latest := comparable[len(comparable)-1]
	kernels := trackedKernels(latest.Doc.Benchmarks)
	if len(kernels) == 0 {
		fmt.Fprintf(stderr, "benchguard: trend: latest snapshot %s has no tracked kernels\n", latest.Path)
		return 2
	}
	drift := driftFactors(comparable, stdout)

	failed := 0
	rows := make([]trendRow, 0, len(kernels))
	for _, k := range kernels {
		row := trendRow{name: k, medians: make([]float64, len(comparable))}
		for i, s := range comparable {
			row.medians[i] = benchfmt.MedianNsPerOp(benchfmt.Select(s.Doc.Benchmarks, k))
		}
		row.latest = row.medians[len(row.medians)-1]
		for i, m := range row.medians {
			if m <= 0 {
				continue
			}
			// Gate in the latest run's machine units: a past median is
			// scaled by its snapshot's drift factor before competing for
			// best, so a globally slow or fast benchmarking day doesn't
			// masquerade as a code change.
			if adj := m * drift[i]; row.best <= 0 || adj < row.best {
				row.best = adj
			}
		}
		if row.best > 0 {
			row.deltaPct = (row.latest/row.best - 1) * 100
		}
		rows = append(rows, row)
		fmt.Fprintf(stdout, "benchguard: trend: %s latest %s, best %s, delta %+.1f%% (budget %.1f%%)\n",
			k, formatNs(row.latest), formatNs(row.best), row.deltaPct, maxRegression)
		if row.deltaPct > maxRegression {
			fmt.Fprintf(stderr, "benchguard: FAIL: %s regressed %+.1f%% against its best committed median (budget %.1f%%)\n",
				k, row.deltaPct, maxRegression)
			failed++
		}
	}

	if writePath != "" {
		md := renderTrendMarkdown(comparable, excluded, rows, drift)
		if err := replaceMarkedRegion(writePath, md); err != nil {
			fmt.Fprintf(stderr, "benchguard: trend: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "benchguard: trend: wrote table to %s\n", writePath)
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// splitByEnvironment partitions snapshots into those comparable with the
// latest one and those from a different machine. A snapshot without an
// environment record predates the field and is assumed to come from the
// reference container documented in bench/README.md, so it stays
// comparable — the point is to flag known-different machines, not to
// discard history.
func splitByEnvironment(snaps []benchfmt.Snapshot) (comparable, excluded []benchfmt.Snapshot) {
	ref := snaps[len(snaps)-1].Doc.Env.Fingerprint()
	for _, s := range snaps {
		fp := s.Doc.Env.Fingerprint()
		if fp == "" || ref == "" || fp == ref {
			comparable = append(comparable, s)
		} else {
			excluded = append(excluded, s)
		}
	}
	return comparable, excluded
}

// driftFactors computes one machine-drift normalizer per comparable
// snapshot: the geometric mean, over the reference baselines shared with
// the latest snapshot, of latest/past median ratios. The reference
// implementations never change, so any movement in their medians
// measures the machine (CPU steal, frequency, neighbors), not the code;
// multiplying a past snapshot's medians by its factor re-expresses them
// in the latest run's machine units. The latest snapshot, and any
// snapshot sharing no reference baseline with it, gets factor 1.
func driftFactors(comparable []benchfmt.Snapshot, stdout io.Writer) []float64 {
	latest := comparable[len(comparable)-1]
	var refs []string // first-appearance order: geomean must sum deterministically
	med := map[string]float64{}
	for _, r := range latest.Doc.Benchmarks {
		base := benchfmt.BaseName(r.Name)
		if !referenceBench.MatchString(base) {
			continue
		}
		if _, ok := med[base]; ok {
			continue
		}
		if m := benchfmt.MedianNsPerOp(benchfmt.Select(latest.Doc.Benchmarks, base)); m > 0 {
			refs = append(refs, base)
			med[base] = m
		}
	}
	out := make([]float64, len(comparable))
	for i := range out {
		out[i] = 1
	}
	for i, s := range comparable[:len(comparable)-1] {
		var logSum float64
		n := 0
		for _, base := range refs {
			if past := benchfmt.MedianNsPerOp(benchfmt.Select(s.Doc.Benchmarks, base)); past > 0 {
				logSum += math.Log(med[base] / past)
				n++
			}
		}
		if n > 0 {
			out[i] = math.Exp(logSum / float64(n))
			fmt.Fprintf(stdout, "benchguard: trend: %s machine drift ×%.2f vs latest (geomean over %d reference baselines)\n",
				s.Doc.Date, out[i], n)
		}
	}
	return out
}

// trackedKernels returns the unique regression-gated base names in
// first-appearance order (map iteration would make the rendered table
// nondeterministic and trip the freshness gate).
func trackedKernels(results []benchfmt.Result) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range results {
		base := benchfmt.BaseName(r.Name)
		if seen[base] || referenceBench.MatchString(base) {
			continue
		}
		seen[base] = true
		out = append(out, base)
	}
	return out
}

// trendRow is one tracked kernel's history across the comparable
// snapshots: per-snapshot raw medians (0 where the kernel predates the
// snapshot), the drift-adjusted best, the latest median, and the gated
// delta.
type trendRow struct {
	name     string
	medians  []float64
	best     float64
	latest   float64
	deltaPct float64
}

// formatNs renders a ns/op median at human scale; the zero value (kernel
// absent from a snapshot) renders as a dash.
func formatNs(ns float64) string {
	switch {
	case ns <= 0:
		return "—"
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

// renderTrendMarkdown builds the generated README region: the tracked
// kernel history table, the fast-path speedup table from the latest
// snapshot, and a note for any excluded cross-machine snapshots.
func renderTrendMarkdown(comparable, excluded []benchfmt.Snapshot, rows []trendRow, drift []float64) string {
	var b strings.Builder
	latest := comparable[len(comparable)-1]

	b.WriteString("Median ns/op per tracked kernel across the committed snapshots\n")
	b.WriteString("(reference baselines are listed in the speedup table only; Δ compares\n")
	b.WriteString("the latest median against the best committed one):\n\n")
	b.WriteString("| Benchmark |")
	for _, s := range comparable {
		fmt.Fprintf(&b, " %s |", s.Doc.Date)
	}
	b.WriteString(" Δ vs best |\n|---|")
	for range comparable {
		b.WriteString("---:|")
	}
	b.WriteString("---:|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s |", strings.TrimPrefix(r.name, "Benchmark"))
		for _, m := range r.medians {
			fmt.Fprintf(&b, " %s |", formatNs(m))
		}
		fmt.Fprintf(&b, " %+.1f%% |\n", r.deltaPct)
	}
	var driftNotes []string
	for i, s := range comparable[:len(comparable)-1] {
		// Compare the rendered form, not the float: a factor that would
		// print as ×1.00 is not worth a footnote.
		if f := fmt.Sprintf("%.2f", drift[i]); f != "1.00" {
			driftNotes = append(driftNotes, fmt.Sprintf("%s ×%s", s.Doc.Date, f))
		}
	}
	if len(driftNotes) > 0 {
		fmt.Fprintf(&b, "\nΔ is machine-drift adjusted: each past snapshot's medians are scaled by\nthe geometric-mean ratio of its shared reference baselines before\ncompeting for best (%s).\n", strings.Join(driftNotes, ", "))
	}

	var pairs [][4]string
	for _, p := range speedupPairs {
		fast := benchfmt.MedianNsPerOp(benchfmt.Select(latest.Doc.Benchmarks, p.fast))
		ref := benchfmt.MedianNsPerOp(benchfmt.Select(latest.Doc.Benchmarks, p.ref))
		if fast <= 0 || ref <= 0 {
			continue
		}
		pairs = append(pairs, [4]string{p.label, formatNs(ref), formatNs(fast),
			fmt.Sprintf("%.2f×", ref/fast)})
	}
	if len(pairs) > 0 {
		fmt.Fprintf(&b, "\nFast-path speedups in the latest snapshot (%s):\n\n", latest.Doc.Date)
		b.WriteString("| Kernel | Reference | Fast path | Speedup |\n|---|---:|---:|---:|\n")
		for _, p := range pairs {
			fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", p[0], p[1], p[2], p[3])
		}
	}

	if env := latest.Doc.Env; env != nil {
		fmt.Fprintf(&b, "\nEnvironment: %s, %s (snapshots without a recorded environment are\nassumed to come from the reference container).\n",
			env.Fingerprint(), env.GoVersion)
	}
	for _, s := range excluded {
		fmt.Fprintf(&b, "\nExcluded (different environment): `%s` — %s.\n",
			s.Path, s.Doc.Env.Fingerprint())
	}
	return b.String()
}

// replaceMarkedRegion swaps the text between the trend markers in path
// for content, keeping everything outside untouched. Missing markers are
// an error rather than an append: the target file decides where the
// generated region lives.
func replaceMarkedRegion(path, content string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	text := string(buf)
	begin := strings.Index(text, trendBeginMarker)
	end := strings.Index(text, trendEndMarker)
	if begin < 0 || end < 0 || end < begin {
		return fmt.Errorf("%s: missing %s / %s markers", path, trendBeginMarker, trendEndMarker)
	}
	out := text[:begin+len(trendBeginMarker)] + "\n" + content + text[end:]
	return os.WriteFile(path, []byte(out), 0o644)
}
