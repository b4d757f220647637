package obs

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"decamouflage/internal/testutil"
)

// TestSettingsEventSession pins the Apply/Close lifecycle of the event
// surface: EventsOut enables metrics and installs a recorder, and Close
// dumps its events as NDJSON and uninstalls it.
func TestSettingsEventSession(t *testing.T) {
	if compiledOut {
		t.Skip("observability compiled out (noobs)")
	}
	testutil.VerifyNoLeaks(t)
	t.Cleanup(Disable)
	evPath := filepath.Join(t.TempDir(), "events.ndjson")

	sess, err := Settings{EventsOut: evPath}.Apply()
	if err != nil {
		t.Fatal(err)
	}
	if !Enabled() {
		t.Fatal("Apply with events requested did not enable metrics")
	}
	rec := Events()
	if !rec.Active() {
		t.Fatal("Apply did not install a recorder")
	}
	rec.Record(Event{Name: "detect", TraceID: "s-1", Verdict: "attack"})

	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if Events().Active() {
		t.Fatal("Close did not uninstall the recorder")
	}

	ev, err := os.ReadFile(evPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(ev), `"trace_id":"s-1"`) {
		t.Fatalf("events dump missing event: %q", ev)
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
