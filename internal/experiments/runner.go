// Package experiments regenerates every table and figure of the paper's
// evaluation (and this reproduction's extension experiments) on synthetic
// corpora. Each experiment has a stable ID (T1-T9, F1-F15, X1-X4 and
// X6-X10; X5 is retired and its ID not reused) indexed in DESIGN.md;
// cmd/experiments is the CLI front end and bench_test.go the benchmark
// harness.
package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"decamouflage/internal/dataset"
	"decamouflage/internal/detect"
	"decamouflage/internal/eval"
	"decamouflage/internal/imgcore"
	"decamouflage/internal/obs"
	"decamouflage/internal/scaling"
)

// Config parameterizes an experiment session. The zero value plus an Out
// writer is usable: defaults reproduce the paper's protocol at a laptop
// scale (the paper's own 1000-image corpora are reachable with N=1000).
type Config struct {
	// N is the corpus size per class (default 100).
	N int
	// SrcW/SrcH -> DstW/DstH is the scaling geometry (default 128x128 ->
	// 32x32, a 4:1 ratio per axis like the paper's 800x600 -> 224x224
	// regime).
	SrcW, SrcH, DstW, DstH int
	// Algorithm is the scaling algorithm under attack (default Bilinear).
	Algorithm scaling.Algorithm
	// Eps is the attack budget (default 2).
	Eps float64
	// Seed drives all generators (default 1).
	Seed int64
	// Out receives human-readable results (default os.Stdout).
	Out io.Writer
	// CSVDir, when set, receives CSV series for the figure experiments.
	CSVDir string
	// ArtifactsDir, when set, receives PNG artifacts (attack images,
	// filtered images, spectra).
	ArtifactsDir string
}

func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = 100
	}
	if c.SrcW == 0 {
		c.SrcW = 128
	}
	if c.SrcH == 0 {
		c.SrcH = 128
	}
	if c.DstW == 0 {
		c.DstW = 32
	}
	if c.DstH == 0 {
		c.DstH = 32
	}
	if c.Algorithm == 0 {
		c.Algorithm = scaling.Bilinear
	}
	//declint:ignore floateq zero is the unset-option sentinel, set only by literal omission
	if c.Eps == 0 {
		c.Eps = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Out == nil {
		c.Out = os.Stdout
	}
	return c
}

// Experiment describes one runnable experiment.
type Experiment struct {
	// ID is the stable identifier (e.g. "T2", "F9", "X1").
	ID string
	// Title is a one-line description referencing the paper artifact.
	Title string
	run   func(r *Runner, ctx context.Context) error
}

// Runner executes experiments, lazily building and caching the calibration
// (train) and evaluation corpora shared across them.
type Runner struct {
	cfg Config

	mu      sync.Mutex
	train   *eval.Corpus
	trainBB []eval.MethodThreshold
	evalC   *eval.Corpus
	scaler  *scaling.Scaler
}

// NewRunner builds a Runner with the given configuration.
func NewRunner(cfg Config) *Runner {
	return &Runner{cfg: cfg.withDefaults()}
}

// Config returns the effective (defaulted) configuration.
func (r *Runner) Config() Config { return r.cfg }

// Scaler returns the defender's scaler, building it on first use. The
// build (coefficient tables, possibly via the module-wide LRU) happens
// outside mu: holding the Runner lock across another package's locked
// cache would impose a cross-package lock order for no benefit. Losing
// the publish race just discards one identical scaler.
func (r *Runner) Scaler() (*scaling.Scaler, error) {
	r.mu.Lock()
	s := r.scaler
	r.mu.Unlock()
	if s != nil {
		return s, nil
	}
	s, err := scaling.NewScaler(r.cfg.SrcW, r.cfg.SrcH, r.cfg.DstW, r.cfg.DstH,
		scaling.Options{Algorithm: r.cfg.Algorithm})
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if r.scaler == nil {
		r.scaler = s
	}
	s = r.scaler
	r.mu.Unlock()
	return s, nil
}

// Train returns the calibration corpus (NeurIPS-like), building it once.
// The build is a parallel.For fan-out over the whole corpus and must not
// run under mu; concurrent first callers may both build, and the loser
// discards its copy (the corpora are deterministic for a given spec).
func (r *Runner) Train(ctx context.Context) (*eval.Corpus, error) {
	r.mu.Lock()
	c := r.train
	r.mu.Unlock()
	if c != nil {
		return c, nil
	}
	c, err := eval.BuildCorpus(ctx, r.spec(dataset.NeurIPSLike, r.cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("experiments: build train corpus: %w", err)
	}
	r.mu.Lock()
	if r.train == nil {
		r.train = c
	}
	c = r.train
	r.mu.Unlock()
	return c, nil
}

// TrainBlackBox returns the calibration corpus and its black-box
// thresholds at the 1st percentile, calibrating them once. Same
// discipline as Train: the calibration fan-out runs outside mu.
func (r *Runner) TrainBlackBox(ctx context.Context) (*eval.Corpus, []eval.MethodThreshold, error) {
	train, err := r.Train(ctx)
	if err != nil {
		return nil, nil, err
	}
	r.mu.Lock()
	bb := r.trainBB
	r.mu.Unlock()
	if bb != nil {
		return train, bb, nil
	}
	bb, err = eval.CalibrateBlackBox(ctx, train, 1)
	if err != nil {
		return nil, nil, err
	}
	r.mu.Lock()
	if r.trainBB == nil {
		r.trainBB = bb
	}
	bb = r.trainBB
	r.mu.Unlock()
	return train, bb, nil
}

// Eval returns the evaluation corpus (Caltech-like), building it once.
// Same discipline as Train: the expensive build runs outside mu.
func (r *Runner) Eval(ctx context.Context) (*eval.Corpus, error) {
	r.mu.Lock()
	c := r.evalC
	r.mu.Unlock()
	if c != nil {
		return c, nil
	}
	c, err := eval.BuildCorpus(ctx, r.spec(dataset.CaltechLike, r.cfg.Seed+100000))
	if err != nil {
		return nil, fmt.Errorf("experiments: build eval corpus: %w", err)
	}
	r.mu.Lock()
	if r.evalC == nil {
		r.evalC = c
	}
	c = r.evalC
	r.mu.Unlock()
	return c, nil
}

func (r *Runner) spec(corpus dataset.Corpus, seed int64) eval.CorpusSpec {
	return eval.CorpusSpec{
		Corpus: corpus,
		N:      r.cfg.N,
		SrcW:   r.cfg.SrcW, SrcH: r.cfg.SrcH,
		DstW: r.cfg.DstW, DstH: r.cfg.DstH,
		Seed:      seed,
		Algorithm: r.cfg.Algorithm,
		Eps:       r.cfg.Eps,
	}
}

// printf writes to the configured output.
func (r *Runner) printf(format string, args ...any) {
	fmt.Fprintf(r.cfg.Out, format, args...)
}

// writeCSV persists a CSV file when CSVDir is configured.
func (r *Runner) writeCSV(name string, write func(w io.Writer) error) error {
	if r.cfg.CSVDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.cfg.CSVDir, 0o755); err != nil {
		return fmt.Errorf("experiments: csv dir: %w", err)
	}
	f, err := os.Create(filepath.Join(r.cfg.CSVDir, name))
	if err != nil {
		return fmt.Errorf("experiments: create csv: %w", err)
	}
	defer f.Close()
	return write(f)
}

// saveArtifact persists a PNG when ArtifactsDir is configured.
func (r *Runner) saveArtifact(name string, img *imgcore.Image) error {
	if r.cfg.ArtifactsDir == "" {
		return nil
	}
	return img.SavePNG(filepath.Join(r.cfg.ArtifactsDir, name))
}

// calibrateScorer white-box calibrates one scorer on corpus c.
func calibrateScorer(ctx context.Context, s detect.Scorer, c *eval.Corpus) (*detect.WhiteBoxResult, []float64, []float64, error) {
	benign, attacks, err := eval.ScorePair(ctx, s, c)
	if err != nil {
		return nil, nil, nil, err
	}
	wb, err := detect.CalibrateWhiteBox(benign, attacks)
	if err != nil {
		return nil, nil, nil, err
	}
	return wb, benign, attacks, nil
}

// ensembleOn serves calibrated thresholds on c's scaling geometry and
// algorithm through BuildSystem, the ensemble a gateway would run.
func ensembleOn(c *eval.Corpus, methods []eval.MethodThreshold) (*detect.Ensemble, error) {
	dstW, dstH := c.Scaler.DstSize()
	return detect.BuildSystem(&detect.SystemConfig{
		DstW: dstW, DstH: dstH, Algorithm: c.Scaler.Options().Algorithm.String(),
		Thresholds: eval.Thresholds(methods),
	})
}

// All returns every experiment in execution order.
func All() []Experiment {
	exps := []Experiment{
		{ID: "T1", Title: "Table 1 — CNN model input sizes", run: (*Runner).runT1},
		{ID: "T2", Title: "Table 2 — scaling detection, white-box", run: (*Runner).runT2},
		{ID: "T3", Title: "Table 3 — scaling detection, black-box percentiles", run: (*Runner).runT3},
		{ID: "T4", Title: "Table 4 — filtering detection, white-box", run: (*Runner).runT4},
		{ID: "T5", Title: "Table 5 — filtering detection, black-box percentiles", run: (*Runner).runT5},
		{ID: "T6", Title: "Table 6 — steganalysis detection (CSP)", run: (*Runner).runT6},
		{ID: "T7", Title: "Table 7 — run-time overhead per method", run: (*Runner).runT7},
		{ID: "T8", Title: "Table 8 — Decamouflage ensemble, white-box & black-box", run: (*Runner).runT8},
		{ID: "T9", Title: "Table 9 — escaped attacks lose efficacy (oracle)", run: (*Runner).runT9},
		{ID: "F1", Title: "Figures 1/2 — attack example end to end", run: (*Runner).runF1},
		{ID: "F3", Title: "Figure 3 — scaling-detection intuition", run: (*Runner).runF3},
		{ID: "F4", Title: "Figures 4/5 — min/median/max filters reveal the target", run: (*Runner).runF4},
		{ID: "F6", Title: "Figures 6/7 — centered spectrum points", run: (*Runner).runF6},
		{ID: "F8", Title: "Figure 8 — white-box threshold selection curve", run: (*Runner).runF8},
		{ID: "F9", Title: "Figure 9 — scaling MSE/SSIM distributions (white-box)", run: (*Runner).runF9},
		{ID: "F10", Title: "Figure 10 — scaling benign distributions + percentiles (black-box)", run: (*Runner).runF10},
		{ID: "F11", Title: "Figure 11 — filtering MSE/SSIM distributions (white-box)", run: (*Runner).runF11},
		{ID: "F12", Title: "Figure 12 — filtering benign distributions + percentiles (black-box)", run: (*Runner).runF12},
		{ID: "F13", Title: "Figure 13 — CSP distributions", run: (*Runner).runF13},
		{ID: "F14", Title: "Figure 14 — PSNR overlap, scaling method (Appendix A)", run: (*Runner).runF14},
		{ID: "F15", Title: "Figure 15 — PSNR overlap, filtering method (Appendix A)", run: (*Runner).runF15},
		{ID: "X1", Title: "Extension — cross-kernel attack/defense matrix", run: (*Runner).runX1},
		{ID: "X2", Title: "Extension — attack ε sweep vs detectability", run: (*Runner).runX2},
		{ID: "X3", Title: "Extension — CSP parameter sensitivity", run: (*Runner).runX3},
		{ID: "X4", Title: "Extension — prevention baselines (Quiring et al.)", run: (*Runner).runX4},
		{ID: "X6", Title: "Extension — color-histogram metric debunk (Sec. III-A)", run: (*Runner).runX6},
		{ID: "X7", Title: "Extension — ROC AUC per score metric", run: (*Runner).runX7},
		{ID: "X8", Title: "Extension — JPEG recompression robustness", run: (*Runner).runX8},
		{ID: "X9", Title: "Extension — scale-ratio sweep + target-size forensics", run: (*Runner).runX9},
		{ID: "X10", Title: "Extension — threshold stability across seeds", run: (*Runner).runX10},
	}
	return exps
}

// IDs returns all experiment IDs in order.
func IDs() []string {
	all := All()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	return ids
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Run executes the experiments with the given IDs (all when empty),
// in registry order, stopping at the first error.
func (r *Runner) Run(ctx context.Context, ids ...string) error {
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		if _, ok := ByID(id); !ok {
			known := IDs()
			sort.Strings(known)
			return fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, known)
		}
		want[id] = true
	}
	for _, e := range All() {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		r.printf("== %s: %s ==\n", e.ID, e.Title)
		// Each experiment is one observed stage: wall time lands in
		// experiments.<ID>.seconds and, under a traced context, a span.
		ectx, st := obs.StartStage(ctx, "experiments."+e.ID, obs.H("experiments."+e.ID+".seconds"))
		err := e.run(r, ectx)
		st.End()
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", e.ID, err)
		}
	}
	return nil
}
