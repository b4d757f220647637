package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Registry owns named metrics. Registration (C/G/H) takes a mutex;
// recording on the returned handles is lock-free, so hot paths resolve
// their metrics once (package-level vars) and never touch the registry
// again. Names are free-form ("fourier.plan.hits", "detect.score.
// scaling/MSE.seconds"); Prometheus exposition sanitizes them.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Default is the process-wide registry every instrumented package records
// into.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named latency histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// C is shorthand for Default.Counter.
func C(name string) *Counter { return Default.Counter(name) }

// G is shorthand for Default.Gauge.
func G(name string) *Gauge { return Default.Gauge(name) }

// H is shorthand for Default.Histogram.
func H(name string) *Histogram { return Default.Histogram(name) }

// sortedKeys returns map keys in lexical order so exposition is stable.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// HistogramSnapshot is the JSON form of one histogram.
type HistogramSnapshot struct {
	Count  int64   `json:"count"`
	SumMs  float64 `json:"sum_ms"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	// Exemplars links extreme observations to their trace IDs, one per
	// bucket that has seen a traced observation.
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

func ms(d int64) float64 { return float64(d) / 1e6 }

// Snapshot captures the current value of every registered metric.
// Histograms with zero observations are included, so a dump documents the
// full metric surface.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = HistogramSnapshot{
			Count:     h.Count(),
			SumMs:     ms(int64(h.Sum())),
			MeanMs:    ms(int64(h.Mean())),
			P50Ms:     ms(int64(h.Quantile(0.50))),
			P95Ms:     ms(int64(h.Quantile(0.95))),
			P99Ms:     ms(int64(h.Quantile(0.99))),
			Exemplars: h.Exemplars(),
		}
	}
	return s
}

// WriteJSON writes the registry snapshot as indented JSON (map keys are
// marshalled in sorted order, so output is stable).
func (r *Registry) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// promName sanitizes a metric name into the Prometheus charset
// [a-zA-Z0-9_:]: every other rune becomes '_'. "detect.score.scaling/MSE.
// seconds" exposes as detect_score_scaling_MSE_seconds.
func promName(name string) string {
	out := []byte(name)
	for i, b := range out {
		switch {
		case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b == '_', b == ':':
		case b >= '0' && b <= '9':
			if i == 0 {
				out[i] = '_'
			}
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// escapeLabel escapes a label value for the Prometheus text exposition
// format: backslash, double-quote and newline, in that order, per the
// exposition-format spec.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// writeExemplar appends an OpenMetrics exemplar to a bucket line:
//
//	name_bucket{le="0.005"} 42 # {trace_id="a1b2-7"} 0.0049 1712345678.123
func writeExemplar(w io.Writer, e Exemplar) error {
	_, err := fmt.Fprintf(w, " # {trace_id=\"%s\"} %g %.3f",
		escapeLabel(e.TraceID), e.ValueMs/1e3, float64(e.UnixNs)/1e9)
	return err
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples,
// histograms as cumulative _bucket/_sum/_count families with le labels in
// seconds. Buckets that pinned an exemplar carry it in OpenMetrics
// `# {trace_id="..."}` syntax; label values are escaped per the
// exposition-format spec.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	snap := struct {
		counters map[string]*Counter
		gauges   map[string]*Gauge
		hists    map[string]*Histogram
	}{map[string]*Counter{}, map[string]*Gauge{}, map[string]*Histogram{}}
	r.mu.Lock()
	for k, v := range r.counters {
		snap.counters[k] = v
	}
	for k, v := range r.gauges {
		snap.gauges[k] = v
	}
	for k, v := range r.hists {
		snap.hists[k] = v
	}
	r.mu.Unlock()

	header := func(name, kind string) error {
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", promName(name), kind)
		return err
	}
	for _, name := range sortedKeys(snap.counters) {
		if err := header(name, "counter"); err != nil {
			return err
		}
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "%s %d\n", pn, snap.counters[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(snap.gauges) {
		if err := header(name, "gauge"); err != nil {
			return err
		}
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "%s %d\n", pn, snap.gauges[name].Value()); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(snap.hists) {
		h := snap.hists[name]
		if err := header(name, "histogram"); err != nil {
			return err
		}
		pn := promName(name)
		counts := h.bucketCounts()
		exemplars := map[string]Exemplar{}
		for _, e := range h.Exemplars() {
			exemplars[e.BucketLe] = e
		}
		var cum int64
		for i, n := range counts {
			cum += n
			le := bucketLe(i)
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d", pn, escapeLabel(le), cum); err != nil {
				return err
			}
			if e, ok := exemplars[le]; ok {
				if err := writeExemplar(w, e); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n",
			pn, h.Sum().Seconds(), pn, h.Count()); err != nil {
			return err
		}
	}
	return nil
}

// publishOnce guards the process-global expvar name (expvar.Publish
// panics on duplicates).
var publishOnce sync.Once

// PublishExpvar publishes the default registry's snapshot under the
// expvar name "decamouflage.metrics", making it visible on /debug/vars of
// any debug server (including the one ServeDebug starts). Safe to call
// more than once.
func PublishExpvar() {
	publishOnce.Do(func() {
		expvar.Publish("decamouflage.metrics", expvar.Func(func() any {
			return Default.Snapshot()
		}))
	})
}
