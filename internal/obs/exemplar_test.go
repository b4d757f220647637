package obs

import (
	"strings"
	"testing"
	"time"

	"decamouflage/internal/testutil"
)

func TestObserveTracedPinsExemplar(t *testing.T) {
	withRecording(t)
	var h Histogram
	// 1.5ms lands in the 2ms bucket.
	h.ObserveTraced(1500*time.Microsecond, "t1")
	ex := h.Exemplars()
	if len(ex) != 1 {
		t.Fatalf("exemplars = %+v, want one", ex)
	}
	// ValueMs is ns/1e6 of an exact microsecond count, so bit equality is
	// the intended check.
	if ex[0].TraceID != "t1" || ex[0].BucketLe != "0.002" || !testutil.BitEqual(ex[0].ValueMs, 1.5) {
		t.Fatalf("exemplar = %+v", ex[0])
	}
	if ex[0].UnixNs == 0 {
		t.Fatal("exemplar not timestamped")
	}
	// A smaller observation in the same bucket does not displace the pin.
	h.ObserveTraced(1200*time.Microsecond, "t2")
	if ex = h.Exemplars(); ex[0].TraceID != "t1" {
		t.Fatalf("smaller observation displaced exemplar: %+v", ex[0])
	}
	// A tie goes to the newer trace (most recent extreme).
	h.ObserveTraced(1500*time.Microsecond, "t3")
	if ex = h.Exemplars(); ex[0].TraceID != "t3" {
		t.Fatalf("tie did not refresh exemplar: %+v", ex[0])
	}
	// A larger observation replaces it.
	h.ObserveTraced(1900*time.Microsecond, "t4")
	if ex = h.Exemplars(); ex[0].TraceID != "t4" || !testutil.BitEqual(ex[0].ValueMs, 1.9) {
		t.Fatalf("larger observation did not win: %+v", ex[0])
	}
	// Untraced observations count but never pin.
	h.ObserveTraced(1800*time.Microsecond, "")
	if ex = h.Exemplars(); len(ex) != 1 || ex[0].TraceID != "t4" {
		t.Fatalf("untraced observation touched exemplars: %+v", ex)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	// A second bucket pins independently; overflow reports le="+Inf".
	h.ObserveTraced(20*time.Second, "tinf")
	ex = h.Exemplars()
	if len(ex) != 2 || ex[1].BucketLe != "+Inf" || ex[1].TraceID != "tinf" {
		t.Fatalf("overflow exemplar = %+v", ex)
	}
	var nilH *Histogram
	nilH.ObserveTraced(time.Millisecond, "x")
	if nilH.Exemplars() != nil {
		t.Fatal("nil histogram has exemplars")
	}
}

func TestExemplarsDisabled(t *testing.T) {
	if compiledOut {
		t.Skip("observability compiled out (noobs)")
	}
	var h Histogram
	h.ObserveTraced(time.Millisecond, "t") // metrics disabled: dropped
	if ex := h.Exemplars(); len(ex) != 0 {
		t.Fatalf("disabled histogram pinned exemplars: %+v", ex)
	}
}

func TestSnapshotCarriesExemplars(t *testing.T) {
	withRecording(t)
	r := NewRegistry()
	r.Histogram("lat.seconds").ObserveTraced(3*time.Millisecond, "abc-7")
	snap := r.Snapshot()
	hs := snap.Histograms["lat.seconds"]
	if len(hs.Exemplars) != 1 || hs.Exemplars[0].TraceID != "abc-7" {
		t.Fatalf("snapshot exemplars = %+v", hs.Exemplars)
	}
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"trace_id": "abc-7"`) {
		t.Fatalf("JSON dump missing exemplar trace id:\n%s", sb.String())
	}
}

// TestPromEscaping pins exposition-format escaping: backslash, quote and
// newline in label values.
func TestPromEscaping(t *testing.T) {
	labelCases := []struct{ in, want string }{
		{`plain`, `plain`},
		{`back\slash`, `back\\slash`},
		{`quo"te`, `quo\"te`},
		{"new\nline", `new\nline`},
		{"all\\three\"here\n", `all\\three\"here\n`},
	}
	for _, c := range labelCases {
		if got := escapeLabel(c.in); got != c.want {
			t.Fatalf("escapeLabel(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestWritePrometheusExemplars(t *testing.T) {
	withRecording(t)
	r := NewRegistry()
	r.Counter("req.count").Inc()
	h := r.Histogram("lat.seconds")
	h.ObserveTraced(1500*time.Microsecond, `id"with\quirks`)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE req_count counter\nreq_count 1\n",
		"# TYPE lat_seconds histogram\n",
		// The exemplar rides the bucket line in OpenMetrics syntax, with
		// the trace ID label-escaped and the value in seconds.
		`lat_seconds_bucket{le="0.002"} 1 # {trace_id="id\"with\\quirks"} 0.0015 `,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Exposition must stay single-line-per-sample: no raw newline may
	// survive inside any emitted line.
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.Contains(line, "\r") {
			t.Fatalf("carriage return in exposition line %q", line)
		}
	}
}

// TestHistogramQuantileEdges pins the degenerate inputs: no observations,
// a single observation, everything in the overflow bucket, and q outside
// [0,1]. None may return NaN or garbage.
func TestHistogramQuantileEdges(t *testing.T) {
	withRecording(t)

	var empty Histogram
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
		if got := empty.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}

	var single Histogram
	single.Observe(3 * time.Millisecond) // 5ms bucket: (2ms, 5ms]
	for _, q := range []float64{0, 0.5, 1} {
		got := single.Quantile(q)
		if got < 2*time.Millisecond || got > 5*time.Millisecond {
			t.Fatalf("single-observation Quantile(%v) = %v, want within (2ms, 5ms]", q, got)
		}
	}
	// q outside [0,1] clamps instead of extrapolating.
	if got, lo := single.Quantile(-3), single.Quantile(0); got != lo {
		t.Fatalf("Quantile(-3) = %v, want clamp to Quantile(0) = %v", got, lo)
	}
	if got, hi := single.Quantile(7), single.Quantile(1); got != hi {
		t.Fatalf("Quantile(7) = %v, want clamp to Quantile(1) = %v", got, hi)
	}

	var inf Histogram
	inf.Observe(30 * time.Second)
	inf.Observe(60 * time.Second)
	// Everything beyond the last finite bound reports that bound: a
	// clearly-marked floor, never an interpolated fiction.
	for _, q := range []float64{0, 0.5, 1} {
		if got := inf.Quantile(q); got != 10*time.Second {
			t.Fatalf("overflow Quantile(%v) = %v, want 10s floor", q, got)
		}
	}
}
