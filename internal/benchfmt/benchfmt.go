// Package benchfmt parses `go test -bench` text output into structured
// results for cmd/benchguard, which fails CI when a benchmark pair's
// median overhead exceeds its budget. It also defines Environment, the
// machine stamp perfbench prints with every end-to-end result.
package benchfmt

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	// Name is the benchmark name as printed, including any -N GOMAXPROCS
	// suffix and sub-benchmark path.
	Name string
	// NsPerOp is the reported ns/op.
	NsPerOp float64
	// AllocsPerOp is the reported allocs/op; -1 when the benchmark did not
	// run with -benchmem or ReportAllocs.
	AllocsPerOp int64
}

// Parse extracts benchmark result lines from go test output. A result
// line is `Benchmark<Name>[-P] <N> <value> <unit> [<value> <unit>]...`;
// everything else is skipped. Only ns/op and allocs/op are read; other
// units (B/op, MB/s, custom metrics) are ignored.
func Parse(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// The second field must be the iteration count; "Benchmarking..."
		// chatter and similar noise fails this and is skipped.
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue
		}
		res := Result{Name: fields[0], AllocsPerOp: -1}
		var err error
		ok := false
		for i := 2; i+1 < len(fields); i += 2 {
			val, unit := fields[i], fields[i+1]
			switch unit {
			case "ns/op":
				if res.NsPerOp, err = strconv.ParseFloat(val, 64); err != nil {
					return nil, fmt.Errorf("line %q: bad ns/op %q", sc.Text(), val)
				}
				ok = true
			case "allocs/op":
				if res.AllocsPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
					return nil, fmt.Errorf("line %q: bad allocs/op %q", sc.Text(), val)
				}
			}
		}
		if ok {
			out = append(out, res)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// BaseName strips the -N GOMAXPROCS suffix the testing package appends,
// so "BenchmarkDetectDisabled-8" selects as "BenchmarkDetectDisabled".
// Sub-benchmark path segments are kept.
func BaseName(name string) string {
	if i := strings.LastIndex(name, "-"); i >= 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// Select returns the results whose base name equals base, in input order —
// with `go test -count=N` that is the N repetitions of one benchmark.
func Select(rs []Result, base string) []Result {
	var out []Result
	for _, r := range rs {
		if BaseName(r.Name) == base {
			out = append(out, r)
		}
	}
	return out
}

// MedianNsPerOp returns the median ns/op of the results (the robust
// center cmd/benchguard compares); it returns 0 on an empty slice. An
// even count averages the two central values.
func MedianNsPerOp(rs []Result) float64 {
	if len(rs) == 0 {
		return 0
	}
	vals := make([]float64, len(rs))
	for i, r := range rs {
		vals[i] = r.NsPerOp
	}
	sort.Float64s(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[mid]
	}
	return (vals[mid-1] + vals[mid]) / 2
}

// MedianAllocsPerOp returns the median allocs/op across the results that
// reported one (AllocsPerOp >= 0); results without -benchmem/ReportAllocs
// data are skipped. It returns -1 when no result carries allocation data.
// An even count averages the two central values, rounding down — allocs
// are integral and the guard comparisons are strict inequalities.
func MedianAllocsPerOp(rs []Result) int64 {
	var vals []int64
	for _, r := range rs {
		if r.AllocsPerOp >= 0 {
			vals = append(vals, r.AllocsPerOp)
		}
	}
	if len(vals) == 0 {
		return -1
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[mid]
	}
	return (vals[mid-1] + vals[mid]) / 2
}
