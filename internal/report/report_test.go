package report

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tbl := NewTable("Results", "Metric", "Acc.", "FAR")
	tbl.AddRow("MSE", "99.9%", "0.0%")
	tbl.AddRow("SSIM", "99.0%") // short row padded
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"### Results", "| Metric", "| MSE", "| SSIM", "99.9%"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title, blank, header, separator, 2 rows.
	if len(lines) != 6 {
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
}

func TestTableRenderNoHeaders(t *testing.T) {
	var sb strings.Builder
	if err := (&Table{}).Render(&sb); err == nil {
		t.Error("headerless table accepted")
	}
}

func TestTableNoTitle(t *testing.T) {
	tbl := NewTable("", "A")
	tbl.AddRow("1")
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "###") {
		t.Error("unexpected title header")
	}
}

func TestFormatters(t *testing.T) {
	if got := Pct(0.999); got != "99.9%" {
		t.Errorf("Pct = %q", got)
	}
	if got := Pct(0); got != "0.0%" {
		t.Errorf("Pct(0) = %q", got)
	}
	if got := F(3.14159, 2); got != "3.14" {
		t.Errorf("F = %q", got)
	}
}

func TestRenderHistogramTwoSets(t *testing.T) {
	a := []float64{1, 2, 2, 3, 3, 3}
	b := []float64{10, 11, 11, 12}
	var sb strings.Builder
	err := RenderHistogram(&sb, "MSE distribution", "benign", a, "attack", b, HistogramOptions{
		Bins: 10, Width: 20, Markers: map[string]float64{"threshold": 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "MSE distribution") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "#") || !strings.Contains(out, "*") {
		t.Error("missing bars")
	}
	if !strings.Contains(out, "<-- threshold") {
		t.Errorf("missing marker:\n%s", out)
	}
}

// TestRenderHistogramSameBinMarkersStable renders two markers that fall in
// one bin many times: the output must not depend on map iteration order.
func TestRenderHistogramSameBinMarkersStable(t *testing.T) {
	opts := HistogramOptions{Bins: 5, Width: 10, Markers: map[string]float64{"p99": 2.1, "p95": 2.2}}
	var first string
	for i := 0; i < 20; i++ {
		var sb strings.Builder
		if err := RenderHistogram(&sb, "t", "x", []float64{1, 2, 3, 4, 5}, "", nil, opts); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = sb.String()
			if !strings.Contains(first, "<-- p95 <-- p99") {
				t.Fatalf("markers not in name order:\n%s", first)
			}
			continue
		}
		if sb.String() != first {
			t.Fatalf("render %d differs from the first:\n%s\nvs\n%s", i, sb.String(), first)
		}
	}
}

func TestRenderHistogramSingleSet(t *testing.T) {
	var sb strings.Builder
	if err := RenderHistogram(&sb, "t", "x", []float64{1, 2, 3}, "", nil, HistogramOptions{}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "*") {
		t.Error("unexpected second-series bars")
	}
}

func TestRenderHistogramErrors(t *testing.T) {
	var sb strings.Builder
	if err := RenderHistogram(&sb, "t", "x", nil, "", nil, HistogramOptions{}); err == nil {
		t.Error("empty samples accepted")
	}
}

func TestRenderHistogramConstantData(t *testing.T) {
	var sb strings.Builder
	if err := RenderHistogram(&sb, "t", "x", []float64{5, 5, 5}, "", nil, HistogramOptions{Bins: 4}); err != nil {
		t.Fatalf("constant data: %v", err)
	}
}

func TestWriteCSV(t *testing.T) {
	var sb strings.Builder
	err := WriteCSV(&sb, []string{"x", "y"}, []float64{1, 2}, []float64{3.5, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := "x,y\n1,3.5\n2,4\n"
	if sb.String() != want {
		t.Errorf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestWriteCSVErrors(t *testing.T) {
	var sb strings.Builder
	if err := WriteCSV(&sb, []string{"x"}, []float64{1}, []float64{2}); err == nil {
		t.Error("header/column mismatch accepted")
	}
	if err := WriteCSV(&sb, []string{}); err == nil {
		t.Error("no columns accepted")
	}
	if err := WriteCSV(&sb, []string{"x", "y"}, []float64{1}, []float64{2, 3}); err == nil {
		t.Error("ragged columns accepted")
	}
}

func TestScale(t *testing.T) {
	if scale(0, 10, 50) != 0 {
		t.Error("zero count should be zero width")
	}
	if scale(1, 1000, 50) != 1 {
		t.Error("nonzero count should be at least 1 char")
	}
	if scale(10, 10, 50) != 50 {
		t.Error("max count should be full width")
	}
}
