package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs, or 0 for
// an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// tailWindow is the number of calls in one window of the p99. Slow calls
// on a shared machine come in bursts, so a whole-run p99 jumps when a run
// catches one; a burst moves only the windows it falls in.
const tailWindow = 100

// windowedP99 is the median, over the full tailWindow-call windows of xs,
// of each window's p99, or the p99 of all of xs when no window is full.
func windowedP99(xs []float64) float64 {
	if len(xs) < tailWindow {
		return quantile(xs, 0.99)
	}
	var ps []float64
	for lo := 0; lo+tailWindow <= len(xs); lo += tailWindow {
		ps = append(ps, quantile(xs[lo:lo+tailWindow], 0.99))
	}
	return median(ps)
}

// median is the middle value of xs (the mean of the two middle values for
// an even count), or 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapPeak tracks the peak live heap above a baseline, one window of calls
// at a time. The live heap is the runtime's count of bytes marked reachable
// by the latest GC, so a window's peak is the most memory a collection in
// it found in use. Which instant a collection lands on is chance, so a
// single peak over a whole run is noisy; the median of window peaks is not.
type heapPeak struct {
	sample    []metrics.Sample
	base, cur uint64
}

func newHeapPeak() *heapPeak {
	return &heapPeak{sample: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

// reset collects garbage, takes the current live heap as the baseline and
// opens a window.
func (h *heapPeak) reset() {
	runtime.GC()
	h.base = h.read()
	h.cur = 0
}

func (h *heapPeak) read() uint64 {
	metrics.Read(h.sample)
	return h.sample[0].Value.Uint64()
}

// observe records the live heap after a call.
func (h *heapPeak) observe() {
	h.cur = max(h.cur, h.read())
}

// cut closes the open window and returns its peak above the baseline in
// megabytes; the next observe opens a new window.
func (h *heapPeak) cut() float64 {
	peak := max(h.cur, h.base)
	h.cur = 0
	return float64(peak-h.base) / 1e6
}

// gcStats snapshots the runtime's GC CPU time, total CPU time and cycle
// count; deltas of two snapshots cover one phase.
type gcStats struct{ gcCPU, totalCPU, cycles float64 }

func readGC() gcStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return gcStats{s[0].Value.Float64(), s[1].Value.Float64(), float64(s[2].Value.Uint64())}
}
