package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"decamouflage/internal/obs"
)

// writeNDJSON marshals one value per line into dir/name and returns the path.
func writeNDJSON[T any](t *testing.T, dir, name string, vals []T) string {
	t.Helper()
	var sb strings.Builder
	for _, v := range vals {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(b)
		sb.WriteByte('\n')
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func testEvents() []obs.Event {
	stages := func(total int64) []obs.StageDur {
		return []obs.StageDur{
			{Name: "ensemble.detect", Depth: 0, DurNs: total},
			{Name: "scaling/MSE", Depth: 1, OffsetNs: 1000, DurNs: total / 2,
				Attrs: map[string]string{"score": "102", "attack": "true"}},
			{Name: "downscale", Depth: 2, OffsetNs: 1200, DurNs: total / 4},
			{Name: "filtering/SSIM", Depth: 1, OffsetNs: 1100, DurNs: total / 3},
		}
	}
	return []obs.Event{
		{
			Seq: 1, TraceID: "tr-1", Name: "ensemble.detect", UnixNs: 100,
			DurNs: 4_000_000, W: 64, H: 64, C: 3, Verdict: "benign", Votes: 0,
			Methods: []obs.MethodResult{
				{Method: "scaling/MSE", Score: 40, Threshold: 100, Direction: ">", Margin: 60},
			},
			Stages: stages(4_000_000), MemoMisses: 3,
		},
		{
			Seq: 2, TraceID: "tr-2", Name: "ensemble.detect", UnixNs: 200,
			DurNs: 9_000_000, W: 64, H: 64, C: 3, Verdict: "attack", Votes: 2,
			Methods: []obs.MethodResult{
				// Margin 2 on a threshold of 100: inside the 5% band.
				{Method: "scaling/MSE", Score: 102, Threshold: 100, Direction: ">", Attack: true, Margin: 2},
			},
			Stages: stages(9_000_000), Anomalies: []string{obs.AnomalyNearThreshold},
		},
		{
			Seq: 3, TraceID: "tr-3", Name: "ensemble.detect", UnixNs: 300,
			DurNs: 2_000_000, W: 64, H: 64, C: 3,
			Err: "scaling/MSE: boom", Anomalies: []string{obs.AnomalyError},
		},
	}
}

func TestObsdumpReport(t *testing.T) {
	dir := t.TempDir()
	ev := writeNDJSON(t, dir, "events.ndjson", testEvents())

	var sb strings.Builder
	if err := run([]string{"-events", ev}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Flight recorder report: 3 events, 1 errored, 2 anomalous",
		"Detect latency:",
		"Per-stage latency attribution (3 detect events):",
		"ensemble.detect",
		"scaling/MSE",
		"downscale",
		"filtering/SSIM",
		"Slowest events:",
		"tr-2",
		"Borderline verdicts (within 5% of a decision boundary):",
		"tr-3",
		"error",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// The slowest event (tr-2, 9ms) sorts first in the slow list.
	slow := out[strings.Index(out, "Slowest events:"):]
	if strings.Index(slow, "tr-2") > strings.Index(slow, "tr-1") {
		t.Errorf("slow list not sorted by duration:\n%s", slow)
	}
}

func TestObsdumpRenderTrace(t *testing.T) {
	dir := t.TempDir()
	ev := writeNDJSON(t, dir, "events.ndjson", testEvents())

	var sb strings.Builder
	if err := run([]string{"-events", ev, "-trace", "tr-2"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"trace tr-2 (ensemble.detect, 9ms, attack)",
		"  scaling/MSE",
		"    downscale",
		"attack=true score=102", // attrs render sorted
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace render missing %q:\n%s", want, out)
		}
	}
	sb.Reset()
	if err := run([]string{"-events", ev, "-trace", "tr-3"}, &sb); err != nil {
		t.Fatal(err)
	}
	if want := "trace tr-3 (ensemble.detect, 2ms, error: scaling/MSE: boom)"; !strings.Contains(sb.String(), want) {
		t.Errorf("errored trace render missing %q:\n%s", want, sb.String())
	}
	if err := run([]string{"-events", ev, "-trace", "nope"}, &sb); err == nil ||
		!strings.Contains(err.Error(), `no event for trace "nope"`) {
		t.Fatalf("unknown trace id error = %v", err)
	}
}

func TestObsdumpInputErrors(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, &sb); err == nil {
		t.Fatal("no inputs accepted")
	}
	if err := run([]string{"-events", filepath.Join(t.TempDir(), "missing.ndjson")}, &sb); err == nil {
		t.Fatal("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.ndjson")
	if err := os.WriteFile(bad, []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-events", bad}, &sb); err == nil {
		t.Fatal("malformed NDJSON accepted")
	}
}
