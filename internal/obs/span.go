package obs

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// spanKey carries the active span through a context.
type spanKey struct{}

// Attr is one key=value annotation on a span. Values are pre-rendered
// strings so rendering needs no reflection.
type Attr struct {
	Key, Value string
}

// Span is one timed region of a trace. Spans form a tree: StartSpan under
// a traced context attaches a child to the context's span. A nil *Span is
// a valid no-op receiver, which is what StartSpan returns on untraced
// contexts — instrumented code never branches on tracing itself.
type Span struct {
	name  string
	start time.Time
	// tid is the owning trace's ID, copied root-to-leaf at creation so any
	// span (and anything observing through it, like histogram exemplars)
	// can name its trace without walking parents.
	tid string
	// arena is the owning trace's span storage, copied root-to-leaf like
	// tid so descendants allocate from the same block.
	arena *spanArena
	// parent is the context this span was started under. The span itself
	// implements context.Context by delegating to it, so StartSpan can
	// return the arena-allocated span as the derived context instead of
	// paying a context.WithValue allocation per span.
	parent context.Context

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	attrs    []Attr
	children []*Span
}

// Span is a context.Context: it carries itself as the active span and
// delegates everything else to the context it was started under. The
// accessors tolerate a nil parent (a zero or recycled span) so stale
// handles degrade to an inert background-like context instead of
// panicking.

// Deadline implements context.Context.
func (s *Span) Deadline() (deadline time.Time, ok bool) {
	if s == nil || s.parent == nil {
		return time.Time{}, false
	}
	return s.parent.Deadline()
}

// Done implements context.Context.
func (s *Span) Done() <-chan struct{} {
	if s == nil || s.parent == nil {
		return nil
	}
	return s.parent.Done()
}

// Err implements context.Context.
func (s *Span) Err() error {
	if s == nil || s.parent == nil {
		return nil
	}
	return s.parent.Err()
}

// Value implements context.Context: the span key resolves to the span
// itself, everything else walks up the parent chain.
func (s *Span) Value(key any) any {
	if s == nil {
		return nil
	}
	if _, ok := key.(spanKey); ok {
		return s
	}
	if s.parent == nil {
		return nil
	}
	return s.parent.Value(key)
}

// arenaSpans sizes a trace's span arena. A fully traced ensemble detect
// materializes ~14 spans (root, stage root, three method spans, their
// pipeline stages); deeper trees spill individual spans to the heap.
const arenaSpans = 24

// spanArena is one trace's span storage: a fixed block so a trace costs
// one allocation instead of one per span, recycled through arenaPool when
// the trace's owner releases it. The block never grows —
// growing would move spans out from under live *Span pointers (and copy
// their mutexes); overflow spans come from the heap instead.
type spanArena struct {
	mu  sync.Mutex
	n   int
	buf [arenaSpans]Span
}

var arenaPool = sync.Pool{New: func() any { return new(spanArena) }}

// take hands out the next arena slot, falling back to the heap when the
// block is exhausted. The returned span is zeroed apart from recycled
// attrs/children capacity.
func (a *spanArena) take() *Span {
	a.mu.Lock()
	if a.n < arenaSpans {
		s := &a.buf[a.n]
		a.n++
		a.mu.Unlock()
		return s
	}
	a.mu.Unlock()
	return new(Span)
}

// reset clears every handed-out slot for reuse, keeping the attrs and
// children backing arrays (their contents are cleared so recycled slots
// hold no stale pointers).
func (a *spanArena) reset() {
	for i := 0; i < a.n; i++ {
		s := &a.buf[i]
		clear(s.attrs)
		clear(s.children)
		*s = Span{attrs: s.attrs[:0], children: s.children[:0]}
	}
	a.n = 0
}

// traceSeq numbers traces within the process; traceStamp distinguishes
// processes, so IDs from overlapping runs do not collide in a shared log.
var (
	traceSeq   atomic.Uint64
	traceStamp = func() string {
		// splitmix64-style mixing of the start time, truncated: the stamp
		// only needs to differ between processes, not be unguessable.
		z := uint64(time.Now().UnixNano())
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return strconv.FormatUint((z^(z>>31))&0xFFFFFF, 16)
	}()
)

// newTraceID returns a process-unique trace ID like "a1b2c3-42".
func newTraceID() string {
	return traceStamp + "-" + strconv.FormatUint(traceSeq.Add(1), 10)
}

// Trace owns the root span of one traced operation (e.g. one image
// classification). Create with WithTrace, finish with End, print with
// Render, and recycle its spans with Release.
type Trace struct {
	root *Span
}

// WithTrace starts a new trace rooted at name and returns a context that
// carries it: every StartSpan under that context records into the trace.
// Tracing is independent of the metrics flag — it is enabled purely by
// the presence of a trace in the context.
func WithTrace(ctx context.Context, name string) (context.Context, *Trace) {
	if compiledOut {
		return ctx, nil
	}
	a := arenaPool.Get().(*spanArena)
	s := a.take()
	//declint:ignore poollife arena recycling is opportunistic, not owned: the ensemble releases the traces it opens once their event is recorded, and caller-owned traces drop the arena to the GC — the pool's miss path, not a leak
	s.name, s.start, s.tid, s.arena, s.parent = name, time.Now(), newTraceID(), a, ctx
	return s, &Trace{root: s}
}

// ID returns the trace's ID ("" on a nil or released trace).
func (t *Trace) ID() string {
	if t == nil || t.root == nil {
		return ""
	}
	return t.root.tid
}

// Release returns the trace's span arena to the pool and detaches the
// root, so later method calls on the trace are visible no-ops instead of
// reads of recycled spans. Only the trace's owner may call it, once
// nothing reads the trace or any span taken from it: copy what must
// outlive the trace (FlattenSpans) first. Nil-safe. Traces whose root
// was not arena-allocated (tests building Span values by hand) release
// nothing.
func (t *Trace) Release() {
	if t == nil || t.root == nil {
		return
	}
	a := t.root.arena
	t.root = nil
	if a == nil {
		return
	}
	a.reset()
	arenaPool.Put(a)
}

// TraceID returns the ID of the trace active on ctx, or "" when the
// context is untraced — one context.Value lookup, no allocation.
func TraceID(ctx context.Context) string {
	if compiledOut {
		return ""
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	if sp == nil {
		return ""
	}
	return sp.tid
}

// Root returns the trace's root span (nil on a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// End closes the root span.
func (t *Trace) End() { t.Root().End() }

// StartSpan starts a child span under the context's active span. On a
// context with no trace it returns (ctx, nil) — a single context.Value
// miss — so instrumentation is safe on every code path.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if compiledOut {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	var s *Span
	if parent.arena != nil {
		s = parent.arena.take()
	} else {
		s = new(Span)
	}
	s.name, s.start, s.tid, s.arena, s.parent = name, time.Now(), parent.tid, parent.arena, ctx
	parent.mu.Lock()
	parent.children = append(parent.children, s)
	parent.mu.Unlock()
	return s, s
}

// End records the span's duration. The first call wins; later calls are
// no-ops, and rendering an unended span shows its live duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
}

// Duration returns the recorded duration (or the live duration of a span
// not yet ended).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// Name returns the span name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Children returns a snapshot of the span's child spans, in start order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// attr appends one rendered attribute.
func (s *Span) attr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// AttrString annotates the span with a string value.
func (s *Span) AttrString(key, value string) {
	if s == nil {
		return
	}
	s.attr(key, value)
}

// AttrFloat annotates the span with a float value. The value formats with
// %.6g, matching the CLI's score output.
func (s *Span) AttrFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.attr(key, strconv.FormatFloat(v, 'g', 6, 64))
}

// AttrInt annotates the span with an integer value.
func (s *Span) AttrInt(key string, v int64) {
	if s == nil {
		return
	}
	s.attr(key, strconv.FormatInt(v, 10))
}

// AttrBool annotates the span with a boolean value.
func (s *Span) AttrBool(key string, v bool) {
	if s == nil {
		return
	}
	s.attr(key, strconv.FormatBool(v))
}

// Render writes the trace's span tree as RenderStages prints it. A nil
// trace renders nothing.
func (t *Trace) Render(w io.Writer) error {
	return RenderStages(w, FlattenSpans(t.Root()))
}

// RenderStages writes a flattened span tree as an indented timeline, one
// line per stage:
//
//	ensemble.detect                        12.4ms
//	  scaling/MSE            +100µs         8.2ms attack=true score=123.456
//	    downscale            +150µs           5ms
//
// Names are indented two spaces per depth within a 24-column field. The
// +offset column is the stage's start relative to the root, which leaves
// it blank; attributes print sorted by key. Trace.Render and
// cmd/obsdump -trace both print through it, so a live trace and a dumped
// flight-recorder event read alike.
func RenderStages(w io.Writer, stages []StageDur) error {
	var keys []string
	for _, sd := range stages {
		line := fmt.Sprintf("%-24s", strings.Repeat("  ", sd.Depth)+sd.Name)
		if sd.Depth > 0 {
			line += fmt.Sprintf(" +%-9s", fmtDur(time.Duration(sd.OffsetNs)))
		} else {
			line += fmt.Sprintf(" %-10s", "")
		}
		line += fmt.Sprintf(" %9s", fmtDur(time.Duration(sd.DurNs)))
		keys = keys[:0]
		for k := range sd.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			line += " " + k + "=" + sd.Attrs[k]
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// fmtDur rounds a duration for display: microsecond precision below 10ms,
// 10µs above, so columns stay short without hiding stage costs.
func fmtDur(d time.Duration) string {
	if d < 10*time.Millisecond {
		return d.Round(time.Microsecond).String()
	}
	return d.Round(10 * time.Microsecond).String()
}

// Stage couples a span with a latency histogram so a single Start/End
// pair feeds both the per-image trace (when the context is traced) and
// the aggregate metrics (when recording is enabled). The zero Stage is a
// no-op, which is what StartStage returns when both are off.
type Stage struct {
	span  *Span
	hist  *Histogram
	start time.Time
	// tid carries the trace ID to End so the histogram observation can
	// pin an exemplar; empty on untraced stages.
	tid string
}

// StartStage begins a stage named name under ctx, recording its duration
// into h. The returned context carries the stage's span so nested stages
// become children.
func StartStage(ctx context.Context, name string, h *Histogram) (context.Context, Stage) {
	if compiledOut {
		return ctx, Stage{}
	}
	ctx, sp := StartSpan(ctx, name)
	st := Stage{span: sp, hist: h}
	switch {
	case sp != nil:
		st.start = sp.start
		st.tid = sp.tid
	case h != nil && enabled.Load():
		st.start = time.Now()
	}
	return ctx, st
}

// Span returns the stage's span (nil when the context was untraced), for
// attaching attributes.
func (st Stage) Span() *Span { return st.span }

// End closes the stage: ends the span and records the elapsed time into
// the histogram (itself gated on the metrics flag). Traced stages carry
// their trace ID into the observation so extreme latencies pin exemplars.
func (st Stage) End() {
	if st.start.IsZero() {
		return
	}
	st.span.End()
	if st.hist != nil {
		st.hist.ObserveTraced(time.Since(st.start), st.tid)
	}
}
