package obs

import (
	"strconv"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64 metric. The zero value is
// ready to use; nil receivers and disabled recording are no-ops.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if compiledOut || c == nil || n <= 0 || !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count. Reads are always allowed, so tests and
// exposition can inspect values gathered while recording was enabled.
func (c *Counter) Value() int64 {
	if compiledOut || c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 metric (cache sizes, worker counts).
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) {
	if compiledOut || g == nil || !enabled.Load() {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by n (may be negative).
func (g *Gauge) Add(n int64) {
	if compiledOut || g == nil || !enabled.Load() {
		return
	}
	g.v.Add(n)
}

// Value returns the current gauge reading.
func (g *Gauge) Value() int64 {
	if compiledOut || g == nil {
		return 0
	}
	return g.v.Load()
}

// latencyBoundsNs are the fixed histogram bucket upper bounds, in
// nanoseconds: a 1-2-5 ladder from 1µs to 10s. Observations above the last
// bound land in the implicit +Inf bucket. Fixed buckets keep Observe
// lock-free (one atomic add per bucket) and make exposition allocation-
// free of coordination; the range comfortably covers everything from a
// cache probe to a paper-scale experiment.
var latencyBoundsNs = [...]int64{
	1_000, 2_000, 5_000, // 1µs .. 5µs
	10_000, 20_000, 50_000, // 10µs .. 50µs
	100_000, 200_000, 500_000, // 100µs .. 500µs
	1_000_000, 2_000_000, 5_000_000, // 1ms .. 5ms
	10_000_000, 20_000_000, 50_000_000, // 10ms .. 50ms
	100_000_000, 200_000_000, 500_000_000, // 100ms .. 500ms
	1_000_000_000, 2_000_000_000, 5_000_000_000, // 1s .. 5s
	10_000_000_000, // 10s
}

// numBuckets includes the +Inf overflow bucket.
const numBuckets = len(latencyBoundsNs) + 1

// bucketLe renders bucket i's upper bound in seconds, the form Prometheus
// le labels use ("+Inf" for the overflow bucket).
func bucketLe(i int) string {
	if i >= len(latencyBoundsNs) {
		return "+Inf"
	}
	return strconv.FormatFloat(float64(latencyBoundsNs[i])/1e9, 'g', -1, 64)
}

// Histogram is a fixed-bucket latency histogram. Observe is lock-free:
// one atomic add into the bucket, plus count and sum. Quantiles are
// estimated by linear interpolation inside the winning bucket, which is
// exact enough for p50/p95/p99 reporting against the paper's
// hundreds-of-milliseconds method latencies.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	count   atomic.Int64
	sumNs   atomic.Int64
	// exemplars holds, per bucket, the most recent extreme observation's
	// trace link (nil until a traced observation lands there).
	exemplars [numBuckets]atomic.Pointer[exemplar]
}

// exemplar is the stored form of one bucket's trace link.
type exemplar struct {
	valNs   int64
	unixNs  int64
	traceID string
}

// Exemplar is the exported snapshot of one histogram bucket's trace link:
// the trace that produced the bucket's most recent extreme observation
// (OpenMetrics-style), so a latency spike in exposition resolves directly
// to a flight-recorder event (Recorder.Find).
type Exemplar struct {
	// BucketLe is the bucket's upper bound in seconds as rendered in
	// Prometheus exposition ("0.005", "+Inf").
	BucketLe string  `json:"bucket_le"`
	ValueMs  float64 `json:"value_ms"`
	TraceID  string  `json:"trace_id"`
	UnixNs   int64   `json:"unix_ns"`
}

// observe records ns into the histogram and returns the bucket index.
func (h *Histogram) observe(ns int64) int {
	i := 0
	for i < len(latencyBoundsNs) && ns > latencyBoundsNs[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(ns)
	return i
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if compiledOut || h == nil || !enabled.Load() {
		return
	}
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.observe(ns)
}

// ObserveTraced records one duration and, when traceID is non-empty and
// the observation ties or beats its bucket's stored extreme, pins it as
// that bucket's exemplar ("most recent extreme": later observations win
// ties, so the exemplar tracks the freshest worst case).
func (h *Histogram) ObserveTraced(d time.Duration, traceID string) {
	if compiledOut || h == nil || !enabled.Load() {
		return
	}
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	i := h.observe(ns)
	if traceID == "" {
		return
	}
	if cur := h.exemplars[i].Load(); cur == nil || ns >= cur.valNs {
		h.exemplars[i].Store(&exemplar{valNs: ns, unixNs: time.Now().UnixNano(), traceID: traceID})
	}
}

// Exemplars returns the pinned exemplars, one per bucket that has any,
// in bucket order.
func (h *Histogram) Exemplars() []Exemplar {
	if compiledOut || h == nil {
		return nil
	}
	var out []Exemplar
	for i := range h.exemplars {
		e := h.exemplars[i].Load()
		if e == nil {
			continue
		}
		out = append(out, Exemplar{
			BucketLe: bucketLe(i),
			ValueMs:  float64(e.valNs) / 1e6,
			TraceID:  e.traceID,
			UnixNs:   e.unixNs,
		})
	}
	return out
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if compiledOut || h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total observed time.
func (h *Histogram) Sum() time.Duration {
	if compiledOut || h == nil {
		return 0
	}
	return time.Duration(h.sumNs.Load())
}

// Mean returns the average observation, or 0 with no observations.
func (h *Histogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / time.Duration(n)
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// within the bucket containing the target rank. Returns 0 with no
// observations; observations in the +Inf bucket report the last finite
// bound (a floor, clearly marked in exposition by bucket counts).
func (h *Histogram) Quantile(q float64) time.Duration {
	if compiledOut || h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(total)
	var cum int64
	for i := 0; i < numBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if float64(cum+n) >= target {
			if i >= len(latencyBoundsNs) {
				return time.Duration(latencyBoundsNs[len(latencyBoundsNs)-1])
			}
			lo := int64(0)
			if i > 0 {
				lo = latencyBoundsNs[i-1]
			}
			hi := latencyBoundsNs[i]
			frac := (target - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return time.Duration(float64(lo) + frac*float64(hi-lo))
		}
		cum += n
	}
	return time.Duration(latencyBoundsNs[len(latencyBoundsNs)-1])
}

// bucketCounts returns a snapshot of the per-bucket counts (exposition).
func (h *Histogram) bucketCounts() [numBuckets]int64 {
	var out [numBuckets]int64
	if compiledOut || h == nil {
		return out
	}
	for i := range out {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// CacheStats bundles the four metrics every bounded cache in this
// repository reports: hits, misses, evictions and current size. NewCacheStats
// registers them on the default registry as <prefix>.hits, .misses,
// .evictions and .size.
type CacheStats struct {
	Hits, Misses, Evictions *Counter
	Size                    *Gauge
}

// NewCacheStats creates (or rebinds to) the four cache metrics under
// prefix on the default registry.
func NewCacheStats(prefix string) *CacheStats {
	return &CacheStats{
		Hits:      C(prefix + ".hits"),
		Misses:    C(prefix + ".misses"),
		Evictions: C(prefix + ".evictions"),
		Size:      G(prefix + ".size"),
	}
}

// Hit records a cache hit. Nil-safe so caches may run without stats.
func (s *CacheStats) Hit() {
	if s != nil {
		s.Hits.Inc()
	}
}

// Miss records a cache miss.
func (s *CacheStats) Miss() {
	if s != nil {
		s.Misses.Inc()
	}
}

// Evict records n evictions and the resulting size.
func (s *CacheStats) Evict(n int) {
	if s != nil {
		s.Evictions.Add(int64(n))
	}
}

// Resize records the cache's current population.
func (s *CacheStats) Resize(n int) {
	if s != nil {
		s.Size.Set(int64(n))
	}
}

// MemoStats bundles the hit/miss counters of a memoization table — a cache
// whose entries live and die with one request, so eviction and size metrics
// would be noise. The detection pipeline's per-image intermediates report
// through one of these.
type MemoStats struct {
	Hits, Misses *Counter
}

// NewMemoStats creates (or rebinds to) the two memo metrics under prefix on
// the default registry.
func NewMemoStats(prefix string) *MemoStats {
	return &MemoStats{
		Hits:   C(prefix + ".hits"),
		Misses: C(prefix + ".misses"),
	}
}

// Hit records a memo hit. Nil-safe so memo tables may run without stats.
func (s *MemoStats) Hit() {
	if s != nil {
		s.Hits.Inc()
	}
}

// Miss records a memo miss.
func (s *MemoStats) Miss() {
	if s != nil {
		s.Misses.Inc()
	}
}
