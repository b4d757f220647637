package obs

import (
	"runtime"
	"sort"
	"strings"
	"time"
)

// WatchdogConfig tunes the runtime watchdog. Zero fields take defaults;
// a zero threshold disables that particular check (the gauge is still
// sampled).
type WatchdogConfig struct {
	// Interval between samples (default 1s, floor 10ms).
	Interval time.Duration
	// MaxGoroutines flags a goroutine leak (default 10000).
	MaxGoroutines int64
	// MaxHeapBytes flags heap growth (default 0: gauge only).
	MaxHeapBytes int64
	// MaxGCPause flags a long stop-the-world pause (default 50ms).
	MaxGCPause time.Duration
	// MaxTickLag flags scheduler starvation: how late the watchdog's own
	// ticker fires (default 250ms).
	MaxTickLag time.Duration
}

// Watchdog samples runtime health (goroutines, heap, GC pauses, scheduler
// lag) into gauges on a ticker and feeds threshold crossings into the
// flight recorder as "watchdog" events. Start with StartWatchdog, stop
// with Stop; a nil Watchdog is a valid no-op receiver.
type Watchdog struct {
	cfg  WatchdogConfig
	stop chan struct{}
	done chan struct{}

	goroutines *Gauge
	heapAlloc  *Gauge
	heapSys    *Gauge
	gcCount    *Gauge
	gcPause    *Gauge
	tickLag    *Gauge
	ticks      *Counter
	crossings  *Counter

	lastNumGC uint32
	active    string // joined sorted set of currently-crossed thresholds
}

// StartWatchdog launches the watchdog goroutine: one sampling loop per
// watchdog, which selects on w.stop and is joined by Stop via w.done.
// Returns nil under noobs.
func StartWatchdog(cfg WatchdogConfig) *Watchdog {
	if compiledOut {
		return nil
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Interval < 10*time.Millisecond {
		cfg.Interval = 10 * time.Millisecond
	}
	if cfg.MaxGoroutines == 0 {
		cfg.MaxGoroutines = 10_000
	}
	if cfg.MaxGCPause == 0 {
		cfg.MaxGCPause = 50 * time.Millisecond
	}
	if cfg.MaxTickLag == 0 {
		cfg.MaxTickLag = 250 * time.Millisecond
	}
	w := &Watchdog{
		cfg:        cfg,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		goroutines: G("runtime.goroutines"),
		heapAlloc:  G("runtime.heap.alloc_bytes"),
		heapSys:    G("runtime.heap.sys_bytes"),
		gcCount:    G("runtime.gc.count"),
		gcPause:    G("runtime.gc.last_pause_ns"),
		tickLag:    G("runtime.sched.tick_lag_ns"),
		ticks:      C("obs.watchdog.ticks"),
		crossings:  C("obs.watchdog.crossings"),
	}
	go w.loop()
	return w
}

// Stop halts sampling and waits for the watchdog goroutine to exit.
func (w *Watchdog) Stop() {
	if w == nil {
		return
	}
	close(w.stop)
	<-w.done
}

func (w *Watchdog) loop() {
	defer close(w.done)
	tk := time.NewTicker(w.cfg.Interval)
	defer tk.Stop()
	expect := time.Now().Add(w.cfg.Interval)
	for {
		select {
		case <-w.stop:
			return
		case <-tk.C:
			lag := time.Since(expect)
			if lag < 0 {
				lag = 0
			}
			w.sample(lag)
			expect = time.Now().Add(w.cfg.Interval)
		}
	}
}

// sample reads the runtime, updates the gauges, and records a watchdog
// event whenever the set of crossed thresholds changes (edge-triggered,
// so a sustained condition produces one event, not one per tick).
func (w *Watchdog) sample(lag time.Duration) {
	w.ticks.Inc()
	g := int64(runtime.NumGoroutine())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var pause int64
	if ms.NumGC > 0 {
		pause = int64(ms.PauseNs[(ms.NumGC+255)%256])
	}
	w.goroutines.Set(g)
	w.heapAlloc.Set(int64(ms.HeapAlloc))
	w.heapSys.Set(int64(ms.HeapSys))
	w.gcCount.Set(int64(ms.NumGC))
	w.gcPause.Set(pause)
	w.tickLag.Set(lag.Nanoseconds())

	var crossed []string
	if g > w.cfg.MaxGoroutines {
		crossed = append(crossed, "goroutines-high")
	}
	if w.cfg.MaxHeapBytes > 0 && int64(ms.HeapAlloc) > w.cfg.MaxHeapBytes {
		crossed = append(crossed, "heap-high")
	}
	// Only a pause from a GC cycle that finished since the last sample can
	// cross: old pauses were already reported once.
	if ms.NumGC != w.lastNumGC && pause > w.cfg.MaxGCPause.Nanoseconds() {
		crossed = append(crossed, "gc-pause-high")
	}
	if lag > w.cfg.MaxTickLag {
		crossed = append(crossed, "sched-lag-high")
	}
	w.lastNumGC = ms.NumGC

	sort.Strings(crossed)
	state := strings.Join(crossed, ",")
	changed := state != w.active
	w.active = state
	if !changed || state == "" {
		return
	}
	w.crossings.Add(int64(len(crossed)))
	Events().Record(Event{
		Name:      "watchdog",
		Anomalies: append([]string{AnomalyWatchdog}, crossed...),
		Values: map[string]int64{
			"goroutines":       g,
			"heap_alloc_bytes": int64(ms.HeapAlloc),
			"heap_sys_bytes":   int64(ms.HeapSys),
			"gc_count":         int64(ms.NumGC),
			"gc_last_pause_ns": pause,
			"tick_lag_ns":      lag.Nanoseconds(),
		},
	})
}
