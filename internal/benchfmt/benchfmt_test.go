package benchfmt

import (
	"encoding/json"
	"strings"
	"testing"

	"decamouflage/internal/testutil"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: decamouflage/internal/fourier
cpu: Example CPU
BenchmarkFFT2D256 	      50	   3301700 ns/op	 1048766 B/op	       6 allocs/op
BenchmarkFFT1D256Planned-8  	  100000	      3805 ns/op	       0 B/op	       0 allocs/op
BenchmarkRankFilter256Serial/Window5 	      50	   9049049 ns/op
BenchmarkThroughput 	     200	     52341 ns/op	 312.45 MB/s	    1024 B/op	       2 allocs/op
PASS
ok  	decamouflage/internal/fourier	5.1s
--- FAIL: TestSomething
Benchmarking note: this line is chatter, not a result
`

func TestParse(t *testing.T) {
	got, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d results, want 4: %+v", len(got), got)
	}
	want := []Result{
		{Name: "BenchmarkFFT2D256", NsPerOp: 3301700, AllocsPerOp: 6},
		{Name: "BenchmarkFFT1D256Planned-8", NsPerOp: 3805, AllocsPerOp: 0},
		{Name: "BenchmarkRankFilter256Serial/Window5", NsPerOp: 9049049, AllocsPerOp: -1},
		{Name: "BenchmarkThroughput", NsPerOp: 52341, AllocsPerOp: 2},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("result %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestParseBadValue(t *testing.T) {
	if _, err := Parse(strings.NewReader("BenchmarkX 10 oops ns/op\n")); err == nil {
		t.Fatal("malformed ns/op value must be an error")
	}
}

func TestParseEmpty(t *testing.T) {
	got, err := Parse(strings.NewReader("PASS\nok pkg 1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("parsed %d results from non-benchmark input", len(got))
	}
}

func TestBaseName(t *testing.T) {
	cases := map[string]string{
		"BenchmarkDetectDisabled-8": "BenchmarkDetectDisabled",
		"BenchmarkDetectDisabled":   "BenchmarkDetectDisabled",
		"BenchmarkRank/Window5-16":  "BenchmarkRank/Window5",
		"BenchmarkOdd-name":         "BenchmarkOdd-name", // suffix not numeric
		"BenchmarkTwo-Pass-4":       "BenchmarkTwo-Pass",
	}
	for in, want := range cases {
		if got := BaseName(in); got != want {
			t.Errorf("BaseName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSelectAndMedian(t *testing.T) {
	rs := []Result{
		{Name: "BenchmarkA-8", NsPerOp: 300},
		{Name: "BenchmarkB-8", NsPerOp: 1},
		{Name: "BenchmarkA-8", NsPerOp: 100},
		{Name: "BenchmarkA-8", NsPerOp: 200},
	}
	sel := Select(rs, "BenchmarkA")
	if len(sel) != 3 {
		t.Fatalf("selected %d results, want 3", len(sel))
	}
	if got := MedianNsPerOp(sel); !testutil.BitEqual(got, 200) {
		t.Errorf("odd median = %v, want 200", got)
	}
	sel = append(sel, Result{Name: "BenchmarkA-8", NsPerOp: 400})
	if got := MedianNsPerOp(sel); !testutil.BitEqual(got, 250) {
		t.Errorf("even median = %v, want 250", got)
	}
	if got := MedianNsPerOp(nil); !testutil.BitEqual(got, 0) {
		t.Errorf("empty median = %v, want 0", got)
	}
	if sel := Select(rs, "BenchmarkC"); len(sel) != 0 {
		t.Errorf("selected %d results for absent name", len(sel))
	}
}

func TestMedianAllocsPerOp(t *testing.T) {
	rs := []Result{
		{Name: "BenchmarkA-8", NsPerOp: 1, AllocsPerOp: 30},
		{Name: "BenchmarkA-8", NsPerOp: 1, AllocsPerOp: -1}, // no -benchmem on this rep
		{Name: "BenchmarkA-8", NsPerOp: 1, AllocsPerOp: 10},
		{Name: "BenchmarkA-8", NsPerOp: 1, AllocsPerOp: 20},
	}
	if got := MedianAllocsPerOp(rs); got != 20 {
		t.Errorf("odd median = %d, want 20 (unreported rep skipped)", got)
	}
	rs = append(rs, Result{Name: "BenchmarkA-8", NsPerOp: 1, AllocsPerOp: 25})
	if got := MedianAllocsPerOp(rs); got != 22 {
		t.Errorf("even median = %d, want 22 (average of 20 and 25, rounded down)", got)
	}
	if got := MedianAllocsPerOp(nil); got != -1 {
		t.Errorf("empty median = %d, want -1", got)
	}
	if got := MedianAllocsPerOp([]Result{{AllocsPerOp: -1}}); got != -1 {
		t.Errorf("all-unreported median = %d, want -1", got)
	}
}

// TestEnvironmentJSONRoundTrip pins the key names of the stamp perfbench
// prints on its env line and the committed bench/BENCH_<date>.json record
// carries: renaming a field's JSON tag would orphan every recorded entry.
func TestEnvironmentJSONRoundTrip(t *testing.T) {
	in := Environment{GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 2, CPU: "Example CPU", GoVersion: "go1.24.0"}
	buf, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]any
	if err := json.Unmarshal(buf, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"goos", "goarch", "gomaxprocs", "cpu", "go_version"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("marshaled environment %s lacks key %q", buf, k)
		}
	}
	if len(keys) != 5 {
		t.Errorf("marshaled environment %s has %d keys, want 5", buf, len(keys))
	}
	var out Environment
	if err := json.Unmarshal(buf, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip = %+v, want %+v", out, in)
	}
}
