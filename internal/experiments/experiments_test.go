package experiments

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"decamouflage/internal/scaling"
	"decamouflage/internal/testutil"
)

func testConfig(t *testing.T, out *strings.Builder) Config {
	t.Helper()
	return Config{
		N:    8,
		SrcW: 64, SrcH: 64, DstW: 16, DstH: 16,
		Seed: 3,
		Out:  out,
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.N != 100 || cfg.SrcW != 128 || cfg.DstW != 32 || cfg.Algorithm != scaling.Bilinear {
		t.Errorf("defaults = %+v", cfg)
	}
	if !testutil.BitEqual(cfg.Eps, 2) || cfg.Seed != 1 || cfg.Out == nil {
		t.Errorf("defaults = %+v", cfg)
	}
	// Explicit values survive.
	cfg = Config{N: 5, Eps: 4}.withDefaults()
	if cfg.N != 5 || !testutil.BitEqual(cfg.Eps, 4) {
		t.Errorf("explicit values clobbered: %+v", cfg)
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) < 24 {
		t.Fatalf("registry has %d experiments", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.run == nil {
			t.Errorf("malformed experiment %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate ID %s", e.ID)
		}
		seen[e.ID] = true
	}
	for _, want := range []string{"T1", "T2", "T8", "F9", "F13", "X1", "X10"} {
		if _, ok := ByID(want); !ok {
			t.Errorf("missing experiment %s", want)
		}
	}
	if _, ok := ByID("X5"); ok {
		t.Error("retired experiment X5 still registered")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("bogus ID found")
	}
	if len(IDs()) != len(all) {
		t.Error("IDs length mismatch")
	}
}

func TestRunUnknownID(t *testing.T) {
	var out strings.Builder
	r := NewRunner(testConfig(t, &out))
	if err := r.Run(context.Background(), "BOGUS"); err == nil {
		t.Error("unknown ID accepted")
	}
}

func TestRunnerCachesCorpora(t *testing.T) {
	var out strings.Builder
	r := NewRunner(testConfig(t, &out))
	ctx := context.Background()
	a, err := r.Train(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Train(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("train corpus rebuilt")
	}
	e1, err := r.Eval(ctx)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := r.Eval(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Error("eval corpus rebuilt")
	}
	if a == e1 {
		t.Error("train and eval share a corpus")
	}
}

// TestRunTables runs every table experiment end to end at tiny scale and
// checks the paper's qualitative claims hold: high accuracy for T2-T6 and
// T8, and a sane Table 7.
func TestRunTables(t *testing.T) {
	var out strings.Builder
	cfg := testConfig(t, &out)
	dir := t.TempDir()
	cfg.CSVDir = filepath.Join(dir, "csv")
	cfg.ArtifactsDir = filepath.Join(dir, "art")
	r := NewRunner(cfg)
	ctx := context.Background()
	if err := r.Run(ctx, "T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9"); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"paper Table 1", "LeNet-5",
		"paper Table 2", "paper Table 3", "paper Table 4", "paper Table 5",
		"paper Table 6", "paper Table 7", "paper Table 8",
		"White-box ensemble", "Black-box ensemble",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// The ensemble rows must report high accuracy even at this tiny scale.
	for _, line := range strings.Split(got, "\n") {
		if strings.Contains(line, "-box ensemble") {
			if !strings.Contains(line, "100.0%") && !strings.Contains(line, "9") {
				t.Errorf("suspicious ensemble row: %s", line)
			}
		}
	}
}

func TestRunFigures(t *testing.T) {
	var out strings.Builder
	cfg := testConfig(t, &out)
	dir := t.TempDir()
	cfg.CSVDir = filepath.Join(dir, "csv")
	cfg.ArtifactsDir = filepath.Join(dir, "art")
	r := NewRunner(cfg)
	ctx := context.Background()
	if err := r.Run(ctx, "F1", "F3", "F4", "F6", "F8", "F9", "F10", "F11", "F12", "F13", "F14", "F15"); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"Figures 1-2", "Figure 3", "Figures 4-5", "Figures 6-7", "Figure 8",
		"Figure 9", "Figure 10", "Figure 11", "Figure 12", "Figure 13",
		"Figure 14", "Figure 15", "threshold",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// CSVs and artifacts were written.
	csvs, err := os.ReadDir(cfg.CSVDir)
	if err != nil || len(csvs) < 8 {
		t.Errorf("csv output: %v, %d files", err, len(csvs))
	}
	arts, err := os.ReadDir(cfg.ArtifactsDir)
	if err != nil || len(arts) < 8 {
		t.Errorf("artifact output: %v, %d files", err, len(arts))
	}
}

func TestRunExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("extension sweeps are slow on tiny machines")
	}
	var out strings.Builder
	r := NewRunner(testConfig(t, &out))
	ctx := context.Background()
	if err := r.Run(ctx, "X2", "X3", "X4"); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"ε sweep", "CSP parameter sensitivity", "Detection vs prevention",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunX1CrossKernel(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-kernel sweep builds nine corpora")
	}
	var out strings.Builder
	r := NewRunner(testConfig(t, &out))
	if err := r.Run(context.Background(), "X1"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Cross-kernel") {
		t.Error("missing cross-kernel table")
	}
}

func TestRunHonoursCancellation(t *testing.T) {
	var out strings.Builder
	r := NewRunner(testConfig(t, &out))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := r.Run(ctx, "T2"); err == nil {
		t.Error("cancelled context accepted")
	}
}
