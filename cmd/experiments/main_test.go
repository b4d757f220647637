package main

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"decamouflage/internal/obs"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	err := run([]string{"-run", "T1", "-n", "4", "-src", "32x32", "-dst", "8x8"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunSmallTable(t *testing.T) {
	err := run([]string{"-run", "T6", "-n", "4", "-src", "64x64", "-dst", "16x16"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-src", "junk"}); err == nil {
		t.Error("bad src accepted")
	}
	if err := run([]string{"-dst", "junk"}); err == nil {
		t.Error("bad dst accepted")
	}
	if err := run([]string{"-alg", "junk"}); err == nil {
		t.Error("bad algorithm accepted")
	}
	if err := run([]string{"-run", "NOPE", "-n", "2"}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestRunMetricsDump pins the end-of-run metrics dump: per-experiment
// latency histograms and the kernel caches' counters land in the file.
func TestRunMetricsDump(t *testing.T) {
	obs.Enable()
	enabled := obs.Enabled()
	obs.Disable()
	if !enabled {
		t.Skip("observability compiled out (noobs)")
	}
	t.Cleanup(obs.Disable)
	path := filepath.Join(t.TempDir(), "metrics.json")
	err := run([]string{"-run", "T1", "-n", "4", "-src", "32x32", "-dst", "8x8",
		"-metrics-out", path})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"experiments.T1.seconds", "scaling.coeff.misses"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics dump missing %q:\n%s", want, data)
		}
	}
}

func TestRunBadMetricsFormat(t *testing.T) {
	obs.Enable()
	enabled := obs.Enabled()
	obs.Disable()
	if !enabled {
		t.Skip("observability compiled out (noobs)")
	}
	t.Cleanup(obs.Disable)
	err := run([]string{"-run", "T1", "-n", "4", "-src", "32x32", "-dst", "8x8",
		"-metrics-out", filepath.Join(t.TempDir(), "m.txt"), "-metrics-format", "bogus"})
	if err == nil || !strings.Contains(err.Error(), "metrics format") {
		t.Errorf("bad metrics format error = %v", err)
	}
}

// decodeNDJSON reads one JSON value per line from path.
func decodeNDJSON[T any](t *testing.T, path string) []T {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []T
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var v T
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunFlightRecorderEndToEnd is the acceptance run: a full ensemble
// experiment with the recorder installed must produce a wide event per
// detected image whose stage durations fit the span-tree total, the
// latency histogram's top exemplar must resolve to a recorded event, and
// obsdump -trace must render that event's stage timeline.
func TestRunFlightRecorderEndToEnd(t *testing.T) {
	obs.Enable()
	enabled := obs.Enabled()
	obs.Disable()
	if !enabled {
		t.Skip("observability compiled out (noobs)")
	}
	t.Cleanup(obs.Disable)

	dir := t.TempDir()
	evPath := filepath.Join(dir, "events.ndjson")
	mPath := filepath.Join(dir, "metrics.json")
	err := run([]string{"-run", "T8", "-n", "6", "-src", "48x48", "-dst", "16x16",
		"-events-out", evPath, "-metrics-out", mPath})
	if err != nil {
		t.Fatal(err)
	}

	events := decodeNDJSON[obs.Event](t, evPath)
	for _, ev := range events {
		if ev.Name != "ensemble.detect" {
			t.Fatalf("event %q is not a detect event: %+v", ev.Name, ev)
		}
		if ev.TraceID == "" {
			t.Fatalf("detect event without trace ID: %+v", ev)
		}
		if len(ev.Stages) == 0 || ev.Stages[0].Depth != 0 {
			t.Fatalf("detect event without a rooted span tree: %+v", ev)
		}
		// Per-stage durations are attributed from the span tree, so every
		// stage must fit inside the event's total (methods overlap in
		// parallel, so the invariant is per-stage, not a flat sum).
		for _, sd := range ev.Stages {
			if sd.DurNs < 0 || sd.DurNs > ev.DurNs {
				t.Fatalf("stage %q (%dns) outside event total %dns, trace %s",
					sd.Name, sd.DurNs, ev.DurNs, ev.TraceID)
			}
			if sd.OffsetNs < 0 || sd.OffsetNs > ev.DurNs {
				t.Fatalf("stage %q offset %dns outside event total %dns",
					sd.Name, sd.OffsetNs, ev.DurNs)
			}
		}
	}
	if len(events) == 0 {
		t.Fatal("T8 run recorded no detect events")
	}

	// The slowest-bucket exemplar names the run's worst request, which
	// the recorder's ring still holds: it must resolve end to end.
	data, err := os.ReadFile(mPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	hs, ok := snap.Histograms["detect.ensemble.seconds"]
	if !ok || len(hs.Exemplars) == 0 {
		t.Fatalf("metrics snapshot has no detect.ensemble.seconds exemplars: %+v", hs)
	}
	top := hs.Exemplars[0]
	for _, x := range hs.Exemplars {
		if x.ValueMs > top.ValueMs {
			top = x
		}
	}
	var topEv *obs.Event
	for i := range events {
		if events[i].TraceID == top.TraceID {
			topEv = &events[i]
		}
	}
	if topEv == nil {
		t.Fatalf("top exemplar trace %q has no recorded event", top.TraceID)
	}

	// obsdump renders that event's stage timeline from the dump: a header
	// naming the trace, then one line per stage at its depth.
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH; cannot run obsdump")
	}
	out, err := exec.Command(gobin, "run", "decamouflage/cmd/obsdump",
		"-events", evPath, "-trace", top.TraceID).CombinedOutput()
	if err != nil {
		t.Fatalf("obsdump -trace %s: %v\n%s", top.TraceID, err, out)
	}
	lines := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
	if want := "trace " + top.TraceID + " (ensemble.detect, "; !strings.HasPrefix(lines[0], want) {
		t.Fatalf("obsdump header = %q, want prefix %q", lines[0], want)
	}
	if len(lines)-1 != len(topEv.Stages) {
		t.Fatalf("obsdump rendered %d stage lines for %d stages:\n%s", len(lines)-1, len(topEv.Stages), out)
	}
	for i, sd := range topEv.Stages {
		if want := strings.Repeat("  ", sd.Depth) + sd.Name + " "; !strings.HasPrefix(lines[i+1], want) {
			t.Fatalf("obsdump stage line %d = %q, want prefix %q", i+1, lines[i+1], want)
		}
	}
}
