package obs

import (
	"strings"
	"testing"
	"time"
)

// withRecording enables recording for one test and restores the disabled
// default afterwards.
func withRecording(t *testing.T) {
	t.Helper()
	if compiledOut {
		t.Skip("observability compiled out (noobs)")
	}
	Enable()
	t.Cleanup(Disable)
}

func TestCounterDisabledByDefault(t *testing.T) {
	if compiledOut {
		t.Skip("observability compiled out (noobs)")
	}
	var c Counter
	c.Inc()
	c.Add(5)
	if got := c.Value(); got != 0 {
		t.Fatalf("disabled counter recorded %d, want 0", got)
	}
}

func TestCounter(t *testing.T) {
	withRecording(t)
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-3) // counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var nilC *Counter
	nilC.Inc() // must not panic
	if got := nilC.Value(); got != 0 {
		t.Fatalf("nil counter = %d, want 0", got)
	}
}

func TestGauge(t *testing.T) {
	withRecording(t)
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	var nilG *Gauge
	nilG.Set(1)
	nilG.Add(1)
}

func TestHistogramBasics(t *testing.T) {
	withRecording(t)
	var h Histogram
	for i := 0; i < 10; i++ {
		h.Observe(3 * time.Millisecond)
	}
	if got := h.Count(); got != 10 {
		t.Fatalf("count = %d, want 10", got)
	}
	if got := h.Sum(); got != 30*time.Millisecond {
		t.Fatalf("sum = %v, want 30ms", got)
	}
	if got := h.Mean(); got != 3*time.Millisecond {
		t.Fatalf("mean = %v, want 3ms", got)
	}
	// All observations land in the (2ms, 5ms] bucket, so every quantile
	// interpolates inside it.
	for _, q := range []float64{0.5, 0.95, 0.99} {
		v := h.Quantile(q)
		if v <= 2*time.Millisecond || v > 5*time.Millisecond {
			t.Fatalf("q%.2f = %v, want within (2ms, 5ms]", q, v)
		}
	}
}

func TestHistogramQuantileSpread(t *testing.T) {
	withRecording(t)
	var h Histogram
	// 90 fast observations and 10 slow ones: p50 stays in the fast
	// bucket, p99 in the slow one.
	for i := 0; i < 90; i++ {
		h.Observe(1500 * time.Microsecond) // (1ms, 2ms]
	}
	for i := 0; i < 10; i++ {
		h.Observe(300 * time.Millisecond) // (200ms, 500ms]
	}
	if p50 := h.Quantile(0.50); p50 > 2*time.Millisecond {
		t.Fatalf("p50 = %v, want <= 2ms", p50)
	}
	if p99 := h.Quantile(0.99); p99 <= 200*time.Millisecond {
		t.Fatalf("p99 = %v, want > 200ms", p99)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	withRecording(t)
	var h Histogram
	h.Observe(time.Minute) // beyond the 10s top bound
	if got := h.Count(); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
	// +Inf observations report the last finite bound as a floor.
	if got := h.Quantile(0.5); got != 10*time.Second {
		t.Fatalf("quantile = %v, want 10s floor", got)
	}
}

func TestHistogramDisabled(t *testing.T) {
	if compiledOut {
		t.Skip("observability compiled out (noobs)")
	}
	var h Histogram
	h.Observe(time.Millisecond)
	h.ObserveTraced(time.Millisecond, "t-1")
	if got := h.Count(); got != 0 {
		t.Fatalf("disabled histogram count = %d, want 0", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if a, b := r.Counter("x"), r.Counter("x"); a != b {
		t.Fatal("same name should return the same counter")
	}
	if a, b := r.Gauge("g"), r.Gauge("g"); a != b {
		t.Fatal("same name should return the same gauge")
	}
	if a, b := r.Histogram("h"), r.Histogram("h"); a != b {
		t.Fatal("same name should return the same histogram")
	}
	var nilR *Registry
	if nilR.Counter("x") != nil {
		t.Fatal("nil registry should hand out nil handles")
	}
}

func TestCacheStats(t *testing.T) {
	withRecording(t)
	// The counters live in the default registry and outlast one run of
	// the test (-count=N), so the checks read deltas.
	s := NewCacheStats("test.cachestats")
	hits, misses, evictions := s.Hits.Value(), s.Misses.Value(), s.Evictions.Value()
	s.Hit()
	s.Hit()
	s.Miss()
	s.Evict(3)
	s.Resize(7)
	if got := s.Hits.Value() - hits; got != 2 {
		t.Fatalf("hits = %d, want 2", got)
	}
	if got := s.Misses.Value() - misses; got != 1 {
		t.Fatalf("misses = %d, want 1", got)
	}
	if got := s.Evictions.Value() - evictions; got != 3 {
		t.Fatalf("evictions = %d, want 3", got)
	}
	if got := s.Size.Value(); got != 7 {
		t.Fatalf("size = %d, want 7", got)
	}
	var nilS *CacheStats
	nilS.Hit()
	nilS.Miss()
	nilS.Evict(1)
	nilS.Resize(1)
}

func TestWriteJSON(t *testing.T) {
	withRecording(t)
	r := NewRegistry()
	r.Counter("alpha.count").Add(3)
	r.Gauge("beta.size").Set(9)
	r.Histogram("gamma.seconds").Observe(4 * time.Millisecond)
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"alpha.count": 3`, `"beta.size": 9`, `"gamma.seconds"`, `"count": 1`} {
		if !strings.Contains(out, want) {
			t.Fatalf("JSON dump missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatal("JSON dump should end with a newline")
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"detect.score.scaling/MSE.seconds": "detect_score_scaling_MSE_seconds",
		"simple":                           "simple",
		"9lives":                           "_lives",
		"a:b_c9":                           "a:b_c9",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Fatalf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	withRecording(t)
	r := NewRegistry()
	r.Counter("req.count").Add(2)
	r.Gauge("pool.size").Set(4)
	h := r.Histogram("lat.seconds")
	h.Observe(1500 * time.Microsecond)
	h.Observe(40 * time.Millisecond)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE req_count counter\nreq_count 2\n",
		"# TYPE pool_size gauge\npool_size 4\n",
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{le="+Inf"} 2`,
		"lat_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus dump missing %q:\n%s", want, out)
		}
	}
	// Buckets are cumulative: the 50ms bucket already includes the
	// 1.5ms observation.
	if !strings.Contains(out, `lat_seconds_bucket{le="0.05"} 2`) {
		t.Fatalf("expected cumulative bucket counts:\n%s", out)
	}
}

func TestSnapshotIncludesEmptyHistogram(t *testing.T) {
	r := NewRegistry()
	r.Histogram("idle.seconds")
	snap := r.Snapshot()
	hs, ok := snap.Histograms["idle.seconds"]
	if !ok {
		t.Fatal("empty histogram missing from snapshot")
	}
	if hs.Count != 0 {
		t.Fatalf("empty histogram count = %d", hs.Count)
	}
}
