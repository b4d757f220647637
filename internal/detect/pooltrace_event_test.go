//go:build pooltrace

package detect

// The flight recorder extends each image's lifecycle — the wide event is
// built from the Intermediates' memo/pool counters after the stage ends
// but while the deferred release still holds. These tests pin that the
// pooled-borrow ledger stays balanced with the full recording stack
// installed, on the happy path and under mid-batch cancellation.

import (
	"context"
	"runtime"
	"testing"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/obs"
)

// recordingSession installs a recorder for one pooltrace test (metrics
// enabled so spans and stage histograms are live too). Every image then
// opens a trace whose span arena the ensemble releases after recording
// its event.
// Under -tags noobs there is no recorder to install: these tests pin the
// ledger/recorder interplay specifically, and the ledger alone is already
// covered tag-independently in pooltrace_test.go, so they skip.
func recordingSession(t *testing.T) *obs.Recorder {
	t.Helper()
	if obs.NewRecorder(1) == nil {
		t.Skip("observability compiled out (noobs)")
	}
	obs.Enable()
	t.Cleanup(obs.Disable)
	rec := obs.NewRecorder(256)
	obs.SetRecorder(rec)
	t.Cleanup(func() { obs.SetRecorder(nil) })
	return rec
}

// TestPoolTraceRecorderBatchBalances: with the recorder tracing every
// image, a full batch still releases each pooled borrow exactly once, and
// the events report the borrows the ledger saw and keep their stage trees
// intact after the ensemble released each trace's span arena.
func TestPoolTraceRecorderBatchBalances(t *testing.T) {
	poolTraceReset()
	rec := recordingSession(t)
	e := grayEnsemble(t, &grayScorer{})
	imgs := make([]*imgcore.Image, 8)
	for i := range imgs {
		imgs[i] = rgbImage(16, 12, float64(i))
	}
	if _, err := e.DetectBatch(context.Background(), imgs); err != nil {
		t.Fatal(err)
	}
	if err := poolTraceVerify(); err != nil {
		t.Fatal(err)
	}
	evs := rec.Snapshot()
	if len(evs) != len(imgs) {
		t.Fatalf("recorded %d events for a batch of %d", len(evs), len(imgs))
	}
	for _, ev := range evs {
		if ev.PoolBorrows <= 0 {
			t.Fatalf("3-channel image event reports %d pool borrows, want > 0", ev.PoolBorrows)
		}
		if len(ev.Stages) == 0 || ev.Stages[0].Name != "ensemble.detect" {
			t.Fatalf("event stages after release = %+v, want the ensemble.detect tree", ev.Stages)
		}
	}
}

// TestPoolTraceRecorderCancellation: cancelling a recorded batch midway
// must neither strand a pooled buffer nor crash the event path on the
// errored images.
func TestPoolTraceRecorderCancellation(t *testing.T) {
	poolTraceReset()
	rec := recordingSession(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := grayEnsemble(t, &grayScorer{after: cancel})
	imgs := make([]*imgcore.Image, 4*runtime.GOMAXPROCS(0)+8)
	for i := range imgs {
		imgs[i] = rgbImage(16, 12, float64(i))
	}
	if _, err := e.DetectBatch(ctx, imgs); err == nil {
		t.Fatal("cancelled batch returned no error")
	}
	if err := poolTraceVerify(); err != nil {
		t.Fatal(err)
	}
	if len(rec.Snapshot()) == 0 {
		t.Fatal("cancelled batch recorded no events at all")
	}
}
