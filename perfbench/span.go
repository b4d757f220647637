package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"time"
)

// Span is one timed call, recorded from outside the program: the harness
// takes the clock around a public entry point and files the interval here.
// Spans stay in memory for the whole run and are written as NDJSON at the
// end, so recording never does I/O inside a measured interval.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Trace  int    `json:"trace"`  // the image index the call worked on
	Name   string `json:"name"`
	// StartNS and EndNS are offsets from the recorder's epoch.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// Allocs is the heap allocation count of the call, or -1 when the call
	// was not metered.
	Allocs int64 `json:"allocs"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// Recorder collects spans. A nil *Recorder records nothing, so untraced
// code paths call it unconditionally.
type Recorder struct {
	epoch time.Time
	spans []Span
}

// NewRecorder starts a recorder whose span offsets count from now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Add files a finished span and returns its ID (0 on a nil recorder).
func (r *Recorder) Add(name string, trace, parent int, start, end time.Time, allocs int64) int {
	if r == nil {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		StartNS: int64(start.Sub(r.epoch)), EndNS: int64(end.Sub(r.epoch)),
		Allocs: allocs,
	})
	return id
}

// Open starts a parent span whose end is not known yet; Close finishes it.
func (r *Recorder) Open(name string, trace, parent int, start time.Time) int {
	return r.Add(name, trace, parent, start, start, -1)
}

// Close sets the end of a span opened with Open.
func (r *Recorder) Close(id int, end time.Time) {
	if r != nil && id > 0 {
		r.spans[id-1].EndNS = int64(end.Sub(r.epoch))
	}
}

// Spans returns the recorded spans in recording order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// SelfTimes returns each span's self time keyed by span ID: its duration
// minus the union of its children's intervals, clipped to its own. Children
// that overlap — ensemble members running on different cores — are counted
// once, so self time never goes negative.
func SelfTimes(spans []Span) map[int]time.Duration {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur() - unionWithin(children[s.ID], s.StartNS, s.EndNS)
	}
	return out
}

// unionWithin is the total length of the union of the spans' intervals,
// each clipped to [lo, hi].
func unionWithin(spans []Span, lo, hi int64) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.StartNS, lo), min(s.EndNS, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return time.Duration(total)
}

// WriteNDJSON writes header as the first line, then one span per line with
// its self time.
func (r *Recorder) WriteNDJSON(w io.Writer, header any) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header); err != nil {
		return err
	}
	self := SelfTimes(r.Spans())
	for _, s := range r.Spans() {
		line := struct {
			Span
			SelfNS int64 `json:"self_ns"`
		}{s, int64(self[s.ID])}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}
