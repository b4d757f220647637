// Package report renders experiment outputs: markdown tables matching the
// paper's table layout, ASCII histograms reproducing its distribution
// figures, and CSV series for external plotting.
package report

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"decamouflage/internal/stats"
)

// Table is a simple rows-and-headers structure rendered as markdown.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	for len(cells) < len(t.Headers) {
		cells = append(cells, "")
	}
	t.Rows = append(t.Rows, cells)
}

// Render writes the table as GitHub-flavored markdown.
func (t *Table) Render(w io.Writer) error {
	if len(t.Headers) == 0 {
		return errors.New("report: table has no headers")
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	writeRow := func(cells []string) {
		b.WriteString("|")
		for i := range t.Headers {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			fmt.Fprintf(&b, " %-*s |", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	b.WriteString("|")
	for _, w := range widths {
		b.WriteString(strings.Repeat("-", w+2))
		b.WriteString("|")
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	b.WriteString("\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// Pct formats a fraction as a percentage with one decimal, e.g. "99.9%".
func Pct(frac float64) string {
	return fmt.Sprintf("%.1f%%", frac*100)
}

// F formats a float compactly with the given decimals.
func F(v float64, decimals int) string {
	return strconv.FormatFloat(v, 'f', decimals, 64)
}

// HistogramOptions tunes ASCII histogram rendering.
type HistogramOptions struct {
	// Bins is the bin count (default 30).
	Bins int
	// Width is the bar width in characters (default 50).
	Width int
	// Markers are vertical reference values annotated on their bins (e.g.
	// a selected threshold, the paper's red dashed line).
	Markers map[string]float64
}

// RenderHistogram writes side-by-side ASCII histograms of one or two
// labelled sample sets over a shared range — the shape of the paper's
// Figures 9-15. The second set may be nil.
func RenderHistogram(w io.Writer, title string, labelA string, a []float64, labelB string, b []float64, opts HistogramOptions) error {
	if len(a) == 0 {
		return errors.New("report: histogram needs samples")
	}
	if opts.Bins <= 0 {
		opts.Bins = 30
	}
	if opts.Width <= 0 {
		opts.Width = 50
	}
	loA, hiA, err := stats.MinMax(a)
	if err != nil {
		return err
	}
	lo, hi := loA, hiA
	if len(b) > 0 {
		loB, hiB, err := stats.MinMax(b)
		if err != nil {
			return err
		}
		if loB < lo {
			lo = loB
		}
		if hiB > hi {
			hi = hiB
		}
	}
	//declint:ignore floateq a degenerate range needs exact detection before padding
	if lo == hi {
		hi = lo + 1
	}
	ha, err := stats.NewHistogram(a, lo, hi, opts.Bins)
	if err != nil {
		return err
	}
	var hb *stats.Histogram
	if len(b) > 0 {
		hb, err = stats.NewHistogram(b, lo, hi, opts.Bins)
		if err != nil {
			return err
		}
	}
	maxCount := ha.MaxCount()
	if hb != nil && hb.MaxCount() > maxCount {
		maxCount = hb.MaxCount()
	}
	if maxCount == 0 {
		maxCount = 1
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	if hb != nil {
		fmt.Fprintf(&sb, "  %-12s: '#' x%d samples   %-12s: '*' x%d samples\n", labelA, len(a), labelB, len(b))
	} else {
		fmt.Fprintf(&sb, "  %-12s: '#' x%d samples\n", labelA, len(a))
	}
	// Markers sharing a bin print in name order, not map order, so the
	// rendering is the same on every run.
	names := make([]string, 0, len(opts.Markers))
	for name := range opts.Markers {
		names = append(names, name)
	}
	sort.Strings(names)
	binWidth := (hi - lo) / float64(opts.Bins)
	for i := 0; i < opts.Bins; i++ {
		center := ha.BinCenter(i)
		na := ha.Counts[i]
		nb := 0
		if hb != nil {
			nb = hb.Counts[i]
		}
		barA := strings.Repeat("#", scale(na, maxCount, opts.Width))
		barB := strings.Repeat("*", scale(nb, maxCount, opts.Width))
		marker := ""
		for _, name := range names {
			if v := opts.Markers[name]; v >= lo+float64(i)*binWidth && v < lo+float64(i+1)*binWidth {
				marker += " <-- " + name
			}
		}
		fmt.Fprintf(&sb, "  %12.4g |%-*s|%-*s|%s\n", center, opts.Width, barA, opts.Width, barB, marker)
	}
	sb.WriteString("\n")
	_, err = io.WriteString(w, sb.String())
	return err
}

func scale(n, mx, width int) int {
	if n == 0 {
		return 0
	}
	v := n * width / mx
	if v == 0 {
		v = 1
	}
	return v
}

// WriteCSV writes labelled float series as columns. All series must have
// equal length.
func WriteCSV(w io.Writer, headers []string, columns ...[]float64) error {
	if len(headers) != len(columns) {
		return fmt.Errorf("report: %d headers for %d columns", len(headers), len(columns))
	}
	if len(columns) == 0 {
		return errors.New("report: no columns")
	}
	n := len(columns[0])
	for i, c := range columns {
		if len(c) != n {
			return fmt.Errorf("report: column %d has %d rows, want %d", i, len(c), n)
		}
	}
	var sb strings.Builder
	sb.WriteString(strings.Join(headers, ","))
	sb.WriteString("\n")
	for r := 0; r < n; r++ {
		for c := range columns {
			if c > 0 {
				sb.WriteString(",")
			}
			sb.WriteString(strconv.FormatFloat(columns[c][r], 'g', -1, 64))
		}
		sb.WriteString("\n")
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
