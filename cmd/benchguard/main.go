// Command benchguard compares one benchmark between two `go test -bench`
// output files and fails when the candidate's median ns/op exceeds the
// baseline's by more than a budget. CI uses it to enforce the
// observability layer's compiled-in-but-disabled overhead: the baseline
// is BenchmarkDetectDisabled built with -tags noobs (the instrumentation
// compiled out entirely), the candidate is the default build with
// recording switched off, and the budget is 2%.
//
// Usage:
//
//	go test -run=NONE -bench=Detect -count=5 -tags noobs ./internal/detect/ > noobs.txt
//	go test -run=NONE -bench=Detect -count=5 ./internal/detect/ > default.txt
//	go run ./cmd/benchguard -baseline noobs.txt -candidate default.txt \
//	    -bench BenchmarkDetectDisabled -max-overhead-pct 2
//
// The guard can also compare two DIFFERENT benchmarks — for example the
// legacy/pipeline ensemble pair, where the budget is negative because the
// candidate must be strictly faster:
//
//	go run ./cmd/benchguard -baseline pair.txt -candidate pair.txt \
//	    -baseline-bench BenchmarkEnsembleLegacy \
//	    -candidate-bench BenchmarkEnsemblePipeline \
//	    -max-overhead-pct -25 -require-fewer-allocs
//
// -baseline-bench and -candidate-bench default to -bench; at least one
// side must be named. With -require-fewer-allocs the candidate's median
// allocs/op must be strictly below the baseline's, and both sides must
// carry allocation data (run the benchmarks with -benchmem or
// ReportAllocs).
//
// Exit codes: 0 within budget, 1 over budget (or allocs not fewer), 2 on
// usage/parse errors or when a named benchmark (or its allocation data,
// under -require-fewer-allocs) is missing from its file.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"decamouflage/internal/benchfmt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchguard", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseFlag := fs.String("baseline", "", "bench output file with the baseline numbers")
	candFlag := fs.String("candidate", "", "bench output file with the candidate numbers")
	benchFlag := fs.String("bench", "", "benchmark name to compare (GOMAXPROCS suffix ignored)")
	baseBenchFlag := fs.String("baseline-bench", "", "baseline benchmark name (defaults to -bench)")
	candBenchFlag := fs.String("candidate-bench", "", "candidate benchmark name (defaults to -bench)")
	maxFlag := fs.Float64("max-overhead-pct", 2, "largest tolerated median-ns/op increase, in percent")
	allocsFlag := fs.Bool("require-fewer-allocs", false, "fail unless candidate median allocs/op is strictly below baseline")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: benchguard -baseline a.txt -candidate b.txt -bench BenchmarkName [-baseline-bench N] [-candidate-bench N] [-max-overhead-pct 2] [-require-fewer-allocs]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	baseBench, candBench := *baseBenchFlag, *candBenchFlag
	if baseBench == "" {
		baseBench = *benchFlag
	}
	if candBench == "" {
		candBench = *benchFlag
	}
	if *baseFlag == "" || *candFlag == "" || baseBench == "" || candBench == "" {
		fs.Usage()
		return 2
	}
	base, err := medianFromFile(*baseFlag, baseBench)
	if err != nil {
		fmt.Fprintf(stderr, "benchguard: baseline: %v\n", err)
		return 2
	}
	cand, err := medianFromFile(*candFlag, candBench)
	if err != nil {
		fmt.Fprintf(stderr, "benchguard: candidate: %v\n", err)
		return 2
	}
	label := candBench
	if baseBench != candBench {
		label = baseBench + " -> " + candBench
	}
	overhead := (cand.ns/base.ns - 1) * 100
	fmt.Fprintf(stdout,
		"benchguard: %s baseline %.0f ns/op (n=%d), candidate %.0f ns/op (n=%d), overhead %+.2f%% (budget %.2f%%)\n",
		label, base.ns, base.n, cand.ns, cand.n, overhead, *maxFlag)
	if overhead > *maxFlag {
		fmt.Fprintf(stderr, "benchguard: FAIL: overhead %+.2f%% exceeds %.2f%%\n", overhead, *maxFlag)
		return 1
	}
	if *allocsFlag {
		if base.allocs < 0 {
			fmt.Fprintf(stderr, "benchguard: baseline %q has no allocs/op data (run with -benchmem or ReportAllocs)\n", baseBench)
			return 2
		}
		if cand.allocs < 0 {
			fmt.Fprintf(stderr, "benchguard: candidate %q has no allocs/op data (run with -benchmem or ReportAllocs)\n", candBench)
			return 2
		}
		fmt.Fprintf(stdout, "benchguard: %s baseline %d allocs/op, candidate %d allocs/op\n",
			label, base.allocs, cand.allocs)
		if cand.allocs >= base.allocs {
			fmt.Fprintf(stderr, "benchguard: FAIL: candidate allocs/op %d not below baseline %d\n",
				cand.allocs, base.allocs)
			return 1
		}
	}
	return 0
}

// selectionHint explains a zero-line selection: the usual culprits are a
// name copied verbatim from bench output (selection strips the -N
// GOMAXPROCS suffix; passing it never matches a file whose results carry a
// different suffix, and confuses readers either way) or a -bench pattern
// that filtered the wanted benchmark out of the run. Listing what the file
// does contain makes both obvious.
func selectionHint(results []benchfmt.Result, bench string) string {
	if len(results) == 0 {
		return "; the file contains no benchmark result lines"
	}
	if stripped := benchfmt.BaseName(bench); stripped != bench {
		if len(benchfmt.Select(results, stripped)) > 0 {
			return fmt.Sprintf("; names are compared with the -N GOMAXPROCS suffix stripped — use %q", stripped)
		}
	}
	seen := map[string]bool{}
	var names []string
	for _, r := range results {
		if base := benchfmt.BaseName(r.Name); !seen[base] {
			seen[base] = true
			names = append(names, base)
		}
	}
	return "; the file has: " + strings.Join(names, ", ")
}

// median holds the robust centers of one benchmark's repetitions.
type median struct {
	ns     float64
	allocs int64 // -1 when no repetition reported allocation data
	n      int
}

// medianFromFile parses one bench output file and returns the median
// ns/op and allocs/op of the named benchmark plus how many repetitions
// backed them.
func medianFromFile(path, bench string) (median, error) {
	f, err := os.Open(path)
	if err != nil {
		return median{}, err
	}
	defer f.Close()
	results, err := benchfmt.Parse(f)
	if err != nil {
		return median{}, err
	}
	sel := benchfmt.Select(results, bench)
	if len(sel) == 0 {
		return median{}, fmt.Errorf("no results for %q in %s%s", bench, path, selectionHint(results, bench))
	}
	med := benchfmt.MedianNsPerOp(sel)
	if !(med > 0) {
		return median{}, fmt.Errorf("median ns/op for %q in %s is not positive", bench, path)
	}
	return median{ns: med, allocs: benchfmt.MedianAllocsPerOp(sel), n: len(sel)}, nil
}
