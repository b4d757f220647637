package experiments

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the experiments golden from this run")

// suiteGolden is the whole suite's report at the CLI's
// `experiments -n 20 -src 64x64 -dst 16x16` (seed 1, eps 2, bilinear).
const suiteGolden = "testdata/suite_n20_64x64_16x16.golden"

// TestSuiteGolden runs every experiment and compares the report with the
// committed golden byte for byte, so a change to any table, figure summary
// or extension result shows up as a diff. Only Table 7's two wall-clock
// columns are masked. The output does not depend on the worker count; CI
// runs this test at GOMAXPROCS=1 as well. Regenerate with
// `go test ./internal/experiments/ -run TestSuiteGolden -update` and say
// in the change why the golden moved.
func TestSuiteGolden(t *testing.T) {
	var out strings.Builder
	r := NewRunner(Config{N: 20, SrcW: 64, SrcH: 64, DstW: 16, DstH: 16, Out: &out})
	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := maskT7Timings(out.String())
	if *update {
		if err := os.MkdirAll(filepath.Dir(suiteGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(suiteGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(suiteGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("suite report differs from %s: %s", suiteGolden, firstDiff(string(want), got))
	}
}

// maskT7Timings replaces the run-time and std-dev cells of Table 7's rows,
// the suite's only wall-clock output, with "*" at the same width.
func maskT7Timings(report string) string {
	lines := strings.Split(report, "\n")
	inT7 := false
	for i, l := range lines {
		if strings.HasPrefix(l, "== ") {
			inT7 = strings.HasPrefix(l, "== T7:")
			continue
		}
		cells := strings.Split(l, "|")
		if !inT7 || len(cells) != 6 {
			continue
		}
		for _, c := range []int{3, 4} {
			if _, err := strconv.ParseFloat(strings.TrimSpace(cells[c]), 64); err == nil {
				cells[c] = fmt.Sprintf(" %-*s", len(cells[c])-1, "*")
			}
		}
		lines[i] = strings.Join(cells, "|")
	}
	return strings.Join(lines, "\n")
}

// firstDiff names the first line where two reports differ.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d\nwant: %q\n got: %q", i+1, wl, gl)
		}
	}
	return "no line differs"
}
