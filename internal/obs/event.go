package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Anomaly tags attached to flight-recorder events, so the interesting
// requests sort out of a dump without re-deriving thresholds or latency
// baselines.
const (
	// AnomalyError marks a request that returned an error.
	AnomalyError = "error"
	// AnomalyDeadline marks a request that hit its context deadline.
	AnomalyDeadline = "deadline"
	// AnomalyNearThreshold marks a verdict where at least one method
	// scored inside the borderline band around its decision boundary.
	AnomalyNearThreshold = "near-threshold"
	// AnomalySlow marks a request well above the recorder's adaptive
	// per-event-name latency average.
	AnomalySlow = "slow"
)

// ewma tracks an exponential moving average of durations with a warmup
// count, the adaptive part of the recorder's "slow" tagging. Not
// goroutine-safe; the recorder holds its mutex.
type ewma struct {
	n    int64
	mean float64
}

// observe folds ns into the average and reports whether this observation
// is anomalously slow: past warmup, several times the prior mean, and
// above an absolute floor so microsecond jitter is never tagged.
func (e *ewma) observe(ns int64) (slow bool) {
	const (
		warmup     = 8
		slowFactor = 3.0
		floorNs    = 1e6 // 1ms
	)
	slow = e.n >= warmup && float64(ns) > slowFactor*e.mean && float64(ns) > floorNs
	e.n++
	// Cap the effective window so the mean keeps adapting to drift.
	w := e.n
	if w > 64 {
		w = 64
	}
	e.mean += (float64(ns) - e.mean) / float64(w)
	return slow
}

// StageDur is one flattened span of an event: the span tree serialized
// pre-order, with depth and start offset relative to the root, so a dump
// preserves the full latency attribution without pointers.
type StageDur struct {
	Name     string            `json:"name"`
	Depth    int               `json:"depth"`
	OffsetNs int64             `json:"offset_ns"`
	DurNs    int64             `json:"dur_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// MethodResult is one detection method's contribution to a wide event:
// score, decision boundary and verdict, plus the absolute distance to the
// boundary so borderline calls sort without re-deriving thresholds.
type MethodResult struct {
	Method    string  `json:"method"`
	Score     float64 `json:"score"`
	Threshold float64 `json:"threshold"`
	Direction string  `json:"direction,omitempty"`
	Attack    bool    `json:"attack"`
	Margin    float64 `json:"margin"`
}

// Event is one wide flight-recorder event: everything known about a single
// request (one image detection), denormalized into a single record an
// operator can grep after the fact.
type Event struct {
	Seq     uint64 `json:"seq"`
	TraceID string `json:"trace_id,omitempty"`
	Name    string `json:"name"`
	UnixNs  int64  `json:"unix_ns"`
	DurNs   int64  `json:"dur_ns,omitempty"`

	// Image geometry (detection events).
	W int `json:"w,omitempty"`
	H int `json:"h,omitempty"`
	C int `json:"c,omitempty"`

	// Verdict is "attack" or "benign" on successful detection events.
	Verdict string         `json:"verdict,omitempty"`
	Votes   int            `json:"votes,omitempty"`
	Methods []MethodResult `json:"methods,omitempty"`

	// Stages is the request's span tree, flattened pre-order.
	Stages []StageDur `json:"stages,omitempty"`

	// Pipeline memo and pool accounting for the request.
	MemoHits    int64 `json:"memo_hits,omitempty"`
	MemoMisses  int64 `json:"memo_misses,omitempty"`
	PoolBorrows int64 `json:"pool_borrows,omitempty"`

	Err       string   `json:"err,omitempty"`
	Anomalies []string `json:"anomalies,omitempty"`
}

// Anomalous reports whether the event carries any anomaly tag.
func (e *Event) Anomalous() bool { return len(e.Anomalies) > 0 }

// Recorder is the wide-event flight recorder: a fixed-size ring of the
// most recent events. Record takes one short mutex hold (ring push plus
// adaptive-latency update); snapshots copy the ring so readers never
// block writers for long.
type Recorder struct {
	mu   sync.Mutex
	ring *ringBuf[Event]
	seq  uint64
	slow map[string]*ewma

	// Registry counters carry recorder health, so dumps and /metrics show
	// it next to everything else.
	recordedC  *Counter
	droppedC   *Counter
	anomalousC *Counter
}

// NewRecorder returns a recorder retaining the last capacity events
// (default 1024 when capacity <= 0). Returns nil under noobs; a nil
// Recorder is a valid no-op receiver.
func NewRecorder(capacity int) *Recorder {
	if compiledOut {
		return nil
	}
	if capacity <= 0 {
		capacity = 1024
	}
	return &Recorder{
		ring:       newRingBuf[Event](capacity),
		slow:       map[string]*ewma{},
		recordedC:  C("obs.events.recorded"),
		droppedC:   C("obs.events.dropped"),
		anomalousC: C("obs.events.anomalous"),
	}
}

// Active reports whether recording is live: instrumented code guards its
// event-building work behind this so an uninstalled recorder costs one
// atomic load per request.
func (r *Recorder) Active() bool { return !compiledOut && r != nil }

// Record stamps and stores one event: assigns the sequence number, fills
// a zero UnixNs, tags the event "slow" when its duration is far above the
// adaptive average for its name, and pushes it into the ring.
func (r *Recorder) Record(ev Event) {
	if !r.Active() {
		return
	}
	if ev.UnixNs == 0 {
		ev.UnixNs = time.Now().UnixNano()
	}
	r.mu.Lock()
	r.seq++
	ev.Seq = r.seq
	if ev.DurNs > 0 {
		e := r.slow[ev.Name]
		if e == nil {
			e = &ewma{}
			r.slow[ev.Name] = e
		}
		if e.observe(ev.DurNs) {
			ev.Anomalies = append(ev.Anomalies, AnomalySlow)
		}
	}
	evicted := r.ring.push(ev)
	r.mu.Unlock()
	r.recordedC.Inc()
	if evicted {
		r.droppedC.Inc()
	}
	if ev.Anomalous() {
		r.anomalousC.Inc()
	}
}

// Snapshot returns the retained events, oldest first.
func (r *Recorder) Snapshot() []Event {
	if !r.Active() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.snapshot()
}

// Find returns the most recent retained event with the given trace ID.
func (r *Recorder) Find(traceID string) (Event, bool) {
	if traceID != "" {
		evs := r.Snapshot()
		for i := len(evs) - 1; i >= 0; i-- {
			if evs[i].TraceID == traceID {
				return evs[i], true
			}
		}
	}
	return Event{}, false
}

// WriteNDJSON dumps the retained events to w, one JSON object per line,
// oldest first (dump-on-demand).
func (r *Recorder) WriteNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range r.Snapshot() {
		if err := enc.Encode(&ev); err != nil {
			return err
		}
	}
	return nil
}

// currentRecorder is the process-wide flight recorder, if any. A plain
// atomic pointer keeps the uninstalled fast path to one load.
var currentRecorder atomic.Pointer[Recorder]

// SetRecorder installs r as the process-wide flight recorder (nil
// uninstalls). Instrumented packages reach it through Events.
func SetRecorder(r *Recorder) {
	if compiledOut {
		return
	}
	currentRecorder.Store(r)
}

// Events returns the installed flight recorder, or nil (a no-op receiver)
// when none is installed or observability is compiled out.
func Events() *Recorder {
	if compiledOut {
		return nil
	}
	return currentRecorder.Load()
}

// FlattenSpans serializes a span tree pre-order into StageDur records:
// the root at depth 0, descendants below it, offsets relative to the root
// start. Unended spans report their live duration. Nil-safe.
func FlattenSpans(root *Span) []StageDur {
	if compiledOut || root == nil {
		return nil
	}
	out := make([]StageDur, 0, 16)
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		s.mu.Lock()
		dur := s.dur
		if !s.ended {
			dur = time.Since(s.start)
		}
		var attrs map[string]string
		if len(s.attrs) > 0 {
			attrs = make(map[string]string, len(s.attrs))
			for _, a := range s.attrs {
				attrs[a.Key] = a.Value
			}
		}
		// The slice header is captured under the lock but not copied: a
		// concurrent StartSpan can only append past len, never mutate the
		// elements this header already covers, so walking them lock-free
		// is safe and saves an allocation per span.
		children := s.children
		s.mu.Unlock()
		out = append(out, StageDur{
			Name:     s.name,
			Depth:    depth,
			OffsetNs: s.start.Sub(root.start).Nanoseconds(),
			DurNs:    dur.Nanoseconds(),
			Attrs:    attrs,
		})
		for _, c := range children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return out
}
