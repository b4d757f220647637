package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"decamouflage/internal/testutil"
)

func span(id, parent int, name string, start, end int64) Span {
	return Span{ID: id, Parent: parent, Name: name, StartNS: start, EndNS: end, Allocs: -1}
}

func TestSelfTimeNested(t *testing.T) {
	spans := []Span{
		span(1, 0, "request", 0, 100),
		span(2, 1, "imgcore.decode", 0, 30),
		span(3, 1, "detect.detect", 40, 100),
		span(4, 3, "pipeline.spectrum", 50, 70),
	}
	self := SelfTimes(spans)
	want := map[int]time.Duration{1: 10, 2: 30, 3: 40, 4: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time = %d, want %d", id, self[id], w)
		}
	}
}

// Parallel ensemble members produce children that overlap each other and
// can run past their parent's end; the union counts each instant once and
// only inside the parent.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []Span{
		span(1, 0, "detect.detect", 0, 100),
		span(2, 1, "scaling", 10, 60),
		span(3, 1, "filtering", 40, 80),
		span(4, 1, "steg", 20, 30), // inside scaling's interval
		span(5, 1, "late", 90, 130),
		span(6, 1, "outside", 150, 160),
	}
	// Union inside [0,100]: [10,80] and [90,100] = 80.
	if got := SelfTimes(spans)[1]; got != 20 {
		t.Fatalf("self time = %d, want 20", got)
	}
}

func TestSelfTimeNeverNegative(t *testing.T) {
	spans := []Span{
		span(1, 0, "request", 0, 10),
		span(2, 1, "a", 0, 10),
		span(3, 1, "b", 0, 10),
	}
	if got := SelfTimes(spans)[1]; got != 0 {
		t.Fatalf("self time = %d, want 0", got)
	}
}

func TestRecorderOpenCloseAndNDJSON(t *testing.T) {
	rec := NewRecorder()
	t0 := rec.epoch
	root := rec.Open("request", 7, 0, t0)
	rec.Add("imgcore.decode", 7, root, t0, t0.Add(3*time.Millisecond), 42)
	rec.Close(root, t0.Add(5*time.Millisecond))

	var buf bytes.Buffer
	if err := rec.WriteNDJSON(&buf, map[string]string{"env": "test"}); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header + 2 spans", len(lines))
	}
	req, dec := lines[1], lines[2]
	if req["name"] != "request" || req["trace"] != 7.0 || req["self_ns"] != 2e6 {
		t.Errorf("request line = %v", req)
	}
	if dec["parent"] != req["id"] || dec["allocs"] != 42.0 || dec["self_ns"] != 3e6 {
		t.Errorf("decode line = %v", dec)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var rec *Recorder
	now := time.Now()
	if id := rec.Open("x", 0, 0, now); id != 0 {
		t.Fatalf("Open on nil recorder = %d, want 0", id)
	}
	rec.Close(0, now)
	if rec.Spans() != nil {
		t.Fatal("nil recorder returned spans")
	}
}

func TestQuantiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if got := quantile(xs, 0.99); !testutil.BitEqual(got, 99) {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := median(xs); !testutil.BitEqual(got, 50.5) {
		t.Errorf("median of 1..100 = %v, want 50.5", got)
	}
	if got := quantile(xs[:10], 0.99); !testutil.BitEqual(got, 100) {
		t.Errorf("p99 of 10 samples = %v, want the maximum", got)
	}
}

// A burst of slow calls inside one window moves that window's p99 only.
func TestWindowedP99IgnoresOneBurst(t *testing.T) {
	xs := make([]float64, 3*tailWindow)
	for i := range xs {
		xs[i] = float64(i%tailWindow + 1)
	}
	for i := 0; i < 10; i++ {
		xs[i] = 1000
	}
	if got := windowedP99(xs); !testutil.BitEqual(got, 99) {
		t.Errorf("windowed p99 = %v, want 99", got)
	}
	if got := quantile(xs, 0.99); !testutil.BitEqual(got, 1000) {
		t.Errorf("whole-run p99 = %v, want the burst's 1000", got)
	}
	if got := windowedP99(xs[:50]); !testutil.BitEqual(got, quantile(xs[:50], 0.99)) {
		t.Errorf("short run: windowed p99 = %v, want the plain p99", got)
	}
}
