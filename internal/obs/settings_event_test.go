package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"decamouflage/internal/testutil"
)

// TestSettingsEventSession pins the Apply/Close lifecycle of the v2
// surface: EventsOut installs a recorder, trace settings install a tail
// sampler, Watchdog starts (and Stop joins) the watchdog, and Close dumps
// NDJSON files and uninstalls the globals it installed.
func TestSettingsEventSession(t *testing.T) {
	if compiledOut {
		t.Skip("observability compiled out (noobs)")
	}
	testutil.VerifyNoLeaks(t) // pins that Session.Close joins the watchdog
	t.Cleanup(Disable)
	dir := t.TempDir()
	evPath := filepath.Join(dir, "events.ndjson")
	trPath := filepath.Join(dir, "traces.ndjson")

	s := Settings{
		EventsOut:          evPath,
		TraceKeep:          8,
		TraceOut:           trPath,
		Watchdog:           true,
		WatchdogIntervalMs: 20,
	}
	sess, err := s.Apply()
	if err != nil {
		t.Fatal(err)
	}
	if !Enabled() {
		t.Fatal("Apply with events requested did not enable metrics")
	}
	rec := sess.Recorder()
	if rec == nil || Events() != rec {
		t.Fatal("Apply did not install the session recorder")
	}
	ts := sess.Tail()
	if ts == nil || Tail() != ts {
		t.Fatal("Apply did not install the session tail sampler")
	}

	rec.Record(Event{Name: "detect", TraceID: "s-1", Verdict: "attack"})
	ts.Offer(fakeTrace("detect", "s-1", 2*time.Millisecond), nil)

	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if Events().Active() || Tail().Active() {
		t.Fatal("Close did not uninstall the recorder/sampler")
	}

	ev, err := os.ReadFile(evPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(ev), `"trace_id":"s-1"`) {
		t.Fatalf("events dump missing event: %q", ev)
	}
	tr, err := os.ReadFile(trPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tr), `"id":"s-1"`) {
		t.Fatalf("traces dump missing trace: %q", tr)
	}
}

// TestSettingsCloseKeepsForeignGlobals: Close only uninstalls what the
// session itself installed.
func TestSettingsCloseKeepsForeignGlobals(t *testing.T) {
	if compiledOut {
		t.Skip("observability compiled out (noobs)")
	}
	t.Cleanup(Disable)
	sess, err := Settings{EventBuffer: 4}.Apply()
	if err != nil {
		t.Fatal(err)
	}
	other := NewRecorder(4)
	SetRecorder(other)
	t.Cleanup(func() { SetRecorder(nil) })
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if Events() != other {
		t.Fatal("Close uninstalled a recorder it did not install")
	}
}

// TestDumpMetricsFile: DumpMetrics writes the registry through the shared
// dump helper, and an uncreatable path names the metrics dump in its error.
func TestDumpMetricsFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "metrics.json")
	if err := (Settings{}).DumpMetrics(path); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || len(b) == 0 {
		t.Fatalf("metrics dump = %q, %v; want a non-empty file", b, err)
	}
	err := (Settings{}).DumpMetrics(filepath.Join(dir, "missing", "metrics.json"))
	if err == nil || !strings.HasPrefix(err.Error(), "obs: create metrics dump: ") {
		t.Fatalf("error = %v, want the obs: create metrics dump: prefix", err)
	}
}
