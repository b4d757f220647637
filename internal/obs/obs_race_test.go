package obs_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"decamouflage/internal/obs"
	"decamouflage/internal/parallel"
)

// TestRegistryConcurrent hammers a shared set of metrics from parallel.For
// workers while a reader repeatedly snapshots and renders the registry.
// Run with -race this pins the lock-free recording path: handles resolved
// through the registry must be safe to record into from every worker.
func TestRegistryConcurrent(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	if !obs.Enabled() {
		t.Skip("observability compiled out (noobs)")
	}

	r := obs.NewRegistry()
	const iters = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := r.WriteJSON(&sb); err != nil {
				t.Errorf("WriteJSON: %v", err)
				return
			}
			if err := r.WritePrometheus(&sb); err != nil {
				t.Errorf("WritePrometheus: %v", err)
				return
			}
		}
	}()
	err := parallel.For(context.Background(), iters, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			// Mixed registry lookups and lock-free recording, like a
			// hot path that resolves handles lazily.
			r.Counter("race.count").Inc()
			r.Gauge("race.size").Set(int64(i))
			r.Histogram("race.seconds").Observe(time.Duration(i%7) * time.Microsecond)
		}
		return nil
	}, parallel.Workers(8))
	if err != nil {
		t.Fatal(err)
	}
	<-done

	if got := r.Counter("race.count").Value(); got != iters {
		t.Fatalf("counter = %d, want %d", got, iters)
	}
	if got := r.Histogram("race.seconds").Count(); got != iters {
		t.Fatalf("histogram count = %d, want %d", got, iters)
	}
}

// TestEnableDisableConcurrent flips the recording flag while workers
// record, pinning the atomic gate under -race.
func TestEnableDisableConcurrent(t *testing.T) {
	t.Cleanup(obs.Disable)
	c := obs.C("race.toggle.count")
	h := obs.H("race.toggle.seconds")
	err := parallel.For(context.Background(), 1000, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if i%2 == 0 {
				obs.Enable()
			} else {
				obs.Disable()
			}
			c.Inc()
			_ = obs.Enabled()
			h.Observe(time.Microsecond)
		}
		return nil
	}, parallel.Workers(8))
	if err != nil {
		t.Fatal(err)
	}
}
