package detect

// The differential equivalence suite: the stage-DAG pipeline (Detect)
// must produce bit-identical scores and verdicts to the kernel-composed
// reference (legacyDetect) — memoization and buffer pooling are allowed
// to change where bytes are computed, never which bytes — and every
// member's standalone Score (the calibration and evaluation path) must
// equal its score inside the ensemble (the serving path).

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"decamouflage/internal/filtering"
	"decamouflage/internal/imgcore"
	"decamouflage/internal/metrics"
	"decamouflage/internal/obs"
	"decamouflage/internal/parallel"
	"decamouflage/internal/scaling"
	"decamouflage/internal/steg"
	"decamouflage/internal/testutil"
)

// legacyScore is the reference implementation of each built-in method,
// composed directly from the public kernels with no memo table and no
// pooling: the pre-pipeline per-scorer bodies. Plain scorers are called
// as-is.
func legacyScore(s Scorer, img *imgcore.Image) (float64, error) {
	switch s := s.(type) {
	case *ScalingScorer:
		down, err := scaling.Resize(img, s.trip.dstW, s.trip.dstH, s.trip.sopts)
		if err != nil {
			return 0, fmt.Errorf("detect: scaling downscale: %w", err)
		}
		up, err := scaling.Resize(down, img.W, img.H, s.trip.sopts)
		if err != nil {
			return 0, fmt.Errorf("detect: scaling upscale: %w", err)
		}
		return legacyMetric(s.metric, img, up)
	case *FilteringScorer:
		if err := img.Validate(); err != nil {
			return 0, err
		}
		f, err := filtering.Minimum(img, s.window)
		if err != nil {
			return 0, fmt.Errorf("detect: minimum filter: %w", err)
		}
		return legacyMetric(s.metric, img, f)
	case *StegScorer:
		n, err := steg.CSP(img, s.opts)
		if err != nil {
			return 0, fmt.Errorf("detect: csp: %w", err)
		}
		return float64(n), nil
	default:
		return s.Score(img)
	}
}

// legacyMetric scores an image against its reconstruction with the
// whole-image metric kernels.
func legacyMetric(m Metric, a, b *imgcore.Image) (float64, error) {
	switch m {
	case MSE:
		return metrics.MSE(a, b)
	case SSIM:
		return metrics.SSIM(a, b)
	case PSNR:
		return metrics.PSNR(a, b)
	default:
		return 0, fmt.Errorf("detect: unsupported metric %v", m)
	}
}

// legacyDetect is the reference ensemble pass: every member scores
// concurrently through legacyScore, recomputing its own substrates, and
// the verdicts are majority-voted as Detect does.
func legacyDetect(ctx context.Context, e *Ensemble, img *imgcore.Image) (*EnsembleVerdict, error) {
	if err := img.Validate(); err != nil {
		return nil, err
	}
	verdicts := make([]Verdict, len(e.detectors))
	tasks := make([]func() error, len(e.detectors))
	for i, d := range e.detectors {
		tasks[i] = func() error {
			score, err := legacyScore(d.scorer, img)
			if err != nil {
				return fmt.Errorf("%s: %w", d.Name(), err)
			}
			verdicts[i] = Verdict{Attack: d.threshold.Classify(score), Score: score, Method: d.Name()}
			return nil
		}
	}
	if err := parallel.Do(ctx, tasks); err != nil {
		return nil, err
	}
	out := &EnsembleVerdict{Verdicts: verdicts}
	for _, v := range verdicts {
		if v.Attack {
			out.Votes++
		}
	}
	out.Attack = out.Votes*2 > len(verdicts)
	return out, nil
}

// matrixThreshold returns a plausible decision boundary per metric; the
// equivalence suite only needs both paths to classify against the same
// boundary.
func matrixThreshold(m Metric) Threshold {
	switch m {
	case SSIM:
		return Threshold{Value: 0.5, Direction: Below}
	case PSNR:
		return Threshold{Value: 30, Direction: Below}
	default:
		return Threshold{Value: 100, Direction: Above}
	}
}

// matrixEnsemble builds the full method×metric matrix — scaling and
// filtering under each of MSE/SSIM/PSNR, plus steganalysis/CSP — the
// ensemble shape with maximal substrate sharing.
func matrixEnsemble(tb testing.TB, srcW, srcH, dstW, dstH int) *Ensemble {
	tb.Helper()
	scaler := mustScaler(tb, srcW, srcH, dstW, dstH)
	var ds []*Detector
	for _, m := range []Metric{MSE, SSIM, PSNR} {
		ss, err := NewScalingScorer(scaler, m)
		if err != nil {
			tb.Fatal(err)
		}
		sd, err := NewDetector(ss, matrixThreshold(m))
		if err != nil {
			tb.Fatal(err)
		}
		fs, err := NewFilteringScorer(2, m)
		if err != nil {
			tb.Fatal(err)
		}
		fd, err := NewDetector(fs, matrixThreshold(m))
		if err != nil {
			tb.Fatal(err)
		}
		ds = append(ds, sd, fd)
	}
	gd, err := NewDetector(NewStegScorer(steg.Options{}), DefaultCSPThreshold())
	if err != nil {
		tb.Fatal(err)
	}
	e, err := NewEnsemble(append(ds, gd)...)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// requireEqualVerdicts asserts two ensemble verdicts agree bit-for-bit.
func requireEqualVerdicts(t *testing.T, pipe, legacy *EnsembleVerdict) {
	t.Helper()
	if pipe.Attack != legacy.Attack || pipe.Votes != legacy.Votes {
		t.Fatalf("pipeline (attack=%v votes=%d) != legacy (attack=%v votes=%d)",
			pipe.Attack, pipe.Votes, legacy.Attack, legacy.Votes)
	}
	if len(pipe.Verdicts) != len(legacy.Verdicts) {
		t.Fatalf("verdict count %d != %d", len(pipe.Verdicts), len(legacy.Verdicts))
	}
	for i := range pipe.Verdicts {
		pv, lv := pipe.Verdicts[i], legacy.Verdicts[i]
		if pv.Method != lv.Method || pv.Attack != lv.Attack {
			t.Fatalf("verdict %d: pipeline %+v != legacy %+v", i, pv, lv)
		}
		if !testutil.BitEqual(pv.Score, lv.Score) {
			t.Fatalf("verdict %d (%s): pipeline score %v != legacy %v (ULP %d)",
				i, pv.Method, pv.Score, lv.Score, testutil.ULPDiff(pv.Score, lv.Score))
		}
	}
}

// requireStandaloneMatches asserts that every member's standalone paths —
// Scorer.Score and Detector.Detect — reproduce the member's ensemble score
// bit for bit: thresholds calibrated on standalone scores judge exactly
// the scores the ensemble serves.
func requireStandaloneMatches(t *testing.T, e *Ensemble, img *imgcore.Image, served *EnsembleVerdict) {
	t.Helper()
	for i, d := range e.Detectors() {
		want := served.Verdicts[i].Score
		alone, err := d.scorer.Score(img)
		if err != nil {
			t.Fatalf("%s: standalone Score: %v", d.Name(), err)
		}
		det, err := d.Detect(img)
		if err != nil {
			t.Fatalf("%s: Detector.Detect: %v", d.Name(), err)
		}
		for _, got := range []struct {
			path  string
			score float64
		}{{"Score", alone}, {"Detector.Detect", det.Score}} {
			if !testutil.BitEqual(got.score, want) {
				t.Fatalf("%s: %s score %v != ensemble %v (ULP %d)",
					d.Name(), got.path, got.score, want, testutil.ULPDiff(got.score, want))
			}
		}
	}
}

// TestPipelineMatchesLegacy sweeps odd/even/prime geometries, grayscale
// and RGB inputs, and every metric, asserting bit-identical verdicts
// between the ensemble, the kernel-composed reference and each member's
// standalone scoring paths.
func TestPipelineMatchesLegacy(t *testing.T) {
	cases := []struct {
		srcW, srcH, dstW, dstH int
	}{
		{16, 16, 4, 4},   // even, power of two
		{15, 21, 5, 7},   // odd
		{31, 29, 7, 5},   // prime src
		{47, 33, 13, 11}, // prime dst, non-square
		{24, 18, 32, 26}, // degenerate "down"scale that upscales
	}
	ctx := context.Background()
	for _, tc := range cases {
		for _, channels := range []int{1, 3} {
			name := fmt.Sprintf("%dx%d_to_%dx%d_c%d", tc.srcW, tc.srcH, tc.dstW, tc.dstH, channels)
			t.Run(name, func(t *testing.T) {
				e := matrixEnsemble(t, tc.srcW, tc.srcH, tc.dstW, tc.dstH)
				img := corpusImage(t, int64(tc.srcW*tc.srcH), 0, tc.srcW, tc.srcH)
				if channels == 1 {
					img = img.Gray()
				}
				pipe, err := e.Detect(ctx, img)
				if err != nil {
					t.Fatal(err)
				}
				legacy, err := legacyDetect(ctx, e, img)
				if err != nil {
					t.Fatal(err)
				}
				requireEqualVerdicts(t, pipe, legacy)
				requireStandaloneMatches(t, e, img, pipe)
			})
		}
	}
}

// TestPipelineNonIntegralInputFallsBack pins the float64 lane: an image
// with fractional samples has no 8-bit view, so its min-filter erodes
// over float64, and the pipeline must still match the reference
// bit-for-bit.
func TestPipelineNonIntegralInputFallsBack(t *testing.T) {
	e := matrixEnsemble(t, 24, 18, 8, 6)
	img := corpusImage(t, 43, 0, 24, 18)
	for i := range img.Pix {
		img.Pix[i] = math.Min(255, img.Pix[i]+0.25)
	}
	ctx := context.Background()
	pipe, err := e.Detect(ctx, img)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := legacyDetect(ctx, e, img)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualVerdicts(t, pipe, legacy)
}

// TestQuantizedEnsembleDeterministic pins that an ensemble over quantized
// (8-bit integral) input, whose min-filter erodes over uint8, is
// deterministic: a repeat detect — running on recycled, un-zeroed pool
// buffers — agrees bit-for-bit with the first, and both match the
// reference.
func TestQuantizedEnsembleDeterministic(t *testing.T) {
	e := matrixEnsemble(t, 32, 24, 8, 6)
	img := corpusImage(t, 45, 0, 32, 24)
	if _, ok := img.ToU8(); !ok {
		t.Fatal("corpus image has no 8-bit view")
	}
	ctx := context.Background()
	a, err := e.Detect(ctx, img)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Detect(ctx, img)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualVerdicts(t, a, b)
	ref, err := legacyDetect(ctx, e, img)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualVerdicts(t, a, ref)
}

// TestStandaloneScoreConcurrent pins standalone scoring, whose one-member
// tables share the package's stage instruments, under concurrent use: every member scoring several images at once from
// several workers reproduces its serial scores bit for bit.
func TestStandaloneScoreConcurrent(t *testing.T) {
	ds := matrixEnsemble(t, 24, 18, 8, 6).Detectors()
	imgs := make([]*imgcore.Image, 4)
	for i := range imgs {
		imgs[i] = corpusImage(t, int64(i), i, 24, 18)
	}
	score := func(k int) (float64, error) {
		return ds[k%len(ds)].scorer.Score(imgs[k/len(ds)])
	}
	want := make([]float64, len(ds)*len(imgs))
	for k := range want {
		v, err := score(k)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	got := make([]float64, len(want))
	tasks := make([]func() error, len(want))
	for k := range tasks {
		tasks[k] = func() error {
			v, err := score(k)
			got[k] = v
			return err
		}
	}
	if err := parallel.Do(context.Background(), tasks, parallel.Workers(8)); err != nil {
		t.Fatal(err)
	}
	if k := testutil.FirstDiff(got, want); k != -1 {
		t.Fatalf("%s on image %d: concurrent score %v != serial %v",
			ds[k%len(ds)].Name(), k/len(ds), got[k], want[k])
	}
}

// TestPipelineWorkerCountInvariance pins that the pipeline's verdicts are
// independent of the member-dispatch worker count (substrate computation
// order changes; the memoized values must not).
func TestPipelineWorkerCountInvariance(t *testing.T) {
	e := matrixEnsemble(t, 31, 29, 7, 5)
	img := corpusImage(t, 7, 0, 31, 29)
	ctx := context.Background()
	serial, err := e.detect(ctx, img, parallel.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	wide, err := e.detect(ctx, img, parallel.Workers(8))
	if err != nil {
		t.Fatal(err)
	}
	requireEqualVerdicts(t, wide, serial)
}

// TestPipelineMemoizesSubstrates pins exactly-once substrate computation:
// running the full matrix through one Intermediates table must miss once
// per unique stage and hit on every re-request, with the obs counters
// agreeing with the table's own tallies.
func TestPipelineMemoizesSubstrates(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	e := matrixEnsemble(t, 24, 18, 8, 6)
	img := corpusImage(t, 42, 0, 24, 18)

	obsHits0 := obs.C("detect.pipeline.memo.hits").Value()
	obsMiss0 := obs.C("detect.pipeline.memo.misses").Value()

	in := intermediates(img)
	defer in.release()
	ctx := context.Background()
	for _, d := range e.Detectors() {
		if _, err := d.detectIn(ctx, in); err != nil {
			t.Fatal(err)
		}
	}

	// Unique stages for the 7-member matrix on an RGB image: gray, round
	// trip, min-filter, spectrum, CSP, SSIM reference, and one MSE per
	// substrate (round trip, min-filter) = 8 misses. Every other request
	// is a hit: round trip ×2, MSE(round trip) ×1, min-filter ×2,
	// MSE(min-filter) ×1, SSIM reference ×1 and gray ×1 = 8 hits.
	if got := in.misses.Load(); got != 8 {
		t.Errorf("memo misses = %d, want 8 (one per unique substrate)", got)
	}
	if got := in.hits.Load(); got != 8 {
		t.Errorf("memo hits = %d, want 8", got)
	}
	if obs.Enabled() {
		if got := obs.C("detect.pipeline.memo.misses").Value() - obsMiss0; got != in.misses.Load() {
			t.Errorf("obs memo misses delta = %d, want %d", got, in.misses.Load())
		}
		if got := obs.C("detect.pipeline.memo.hits").Value() - obsHits0; got != in.hits.Load() {
			t.Errorf("obs memo hits delta = %d, want %d", got, in.hits.Load())
		}
	}

	// A second pass over the same table computes nothing new.
	miss1 := in.misses.Load()
	for _, d := range e.Detectors() {
		if _, err := d.detectIn(ctx, in); err != nil {
			t.Fatal(err)
		}
	}
	if got := in.misses.Load(); got != miss1 {
		t.Errorf("second pass recomputed %d substrates", got-miss1)
	}
}

// TestPipelineAdapterWithStubs pins the adapter's fallback: a plain
// Scorer (no ScorePipeline) runs unchanged inside the pipeline ensemble
// and votes exactly as the reference does.
func TestPipelineAdapterWithStubs(t *testing.T) {
	e, err := NewEnsemble(
		stubDetector(t, "stub/attack", 0, true),
		stubDetector(t, "stub/benign", 0, false),
		stubDetector(t, "stub/benign2", 0, false),
	)
	if err != nil {
		t.Fatal(err)
	}
	img := imgcore.MustNew(8, 8, 1)
	img.Fill(100)
	v, err := e.Detect(context.Background(), img)
	if err != nil {
		t.Fatal(err)
	}
	if v.Attack || v.Votes != 1 {
		t.Fatalf("stub ensemble verdict = %+v", v)
	}
	legacy, err := legacyDetect(context.Background(), e, img)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualVerdicts(t, v, legacy)
}

// countingScorer cancels its batch after a fixed number of scores — the
// mid-batch cancellation stub for the fused DetectBatch.
type countingScorer struct {
	scored atomic.Int64
	after  int64
	cancel context.CancelFunc
}

func (c *countingScorer) Name() string { return "counting/stub" }

func (c *countingScorer) Score(*imgcore.Image) (float64, error) {
	if c.scored.Add(1) == c.after {
		c.cancel()
	}
	return 0, nil
}

// TestDetectBatchFusedCancellationMidBatch pins the fused batch: a
// cancellation fired mid-batch aborts with context.Canceled before every
// image is scored.
func TestDetectBatchFusedCancellationMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cs := &countingScorer{after: 3, cancel: cancel}
	d, err := NewDetector(cs, Threshold{Value: 1, Direction: Above})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEnsemble(d)
	if err != nil {
		t.Fatal(err)
	}
	imgs := make([]*imgcore.Image, 64)
	for i := range imgs {
		imgs[i] = imgcore.MustNew(8, 8, 1)
		imgs[i].Fill(float64(i))
	}
	out, err := e.DetectBatch(ctx, imgs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatalf("out = %v, want nil on error", out)
	}
	if n := cs.scored.Load(); n >= int64(len(imgs)) {
		t.Fatalf("all %d images scored despite mid-batch cancel", n)
	}
}

// cancelBeforeCSP is a steganalysis scorer that computes the shared
// spectrum under a live context, then cancels it before the CSP stage
// runs.
type cancelBeforeCSP struct {
	*StegScorer
	cancel context.CancelFunc
}

func (c *cancelBeforeCSP) ScorePipeline(ctx context.Context, in *Intermediates) (float64, error) {
	if _, err := in.spectrum(ctx); err != nil {
		return 0, err
	}
	c.cancel()
	return c.StegScorer.ScorePipeline(ctx, in)
}

// TestDetectCancelledBeforeCSPStage: a context cancelled after the
// spectrum but before the CSP stage reaches the CSP smoothing blur, so
// Detect returns context.Canceled instead of a verdict.
func TestDetectCancelledBeforeCSPStage(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := &cancelBeforeCSP{StegScorer: NewStegScorer(steg.Options{}), cancel: cancel}
	d, err := NewDetector(s, Threshold{Value: 2, Direction: Above})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.DetectCtx(ctx, corpusImage(t, 1, 0, 32, 32)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestDetectBatchFusedMatchesSingle pins the fused batch against per-image
// Detect calls: same verdicts, in order, and an empty batch stays non-nil.
func TestDetectBatchFusedMatchesSingle(t *testing.T) {
	e := matrixEnsemble(t, 16, 16, 4, 4)
	ctx := context.Background()
	var imgs []*imgcore.Image
	for i := 0; i < 4; i++ {
		imgs = append(imgs, corpusImage(t, int64(i), i, 16, 16))
	}
	batch, err := e.DetectBatch(ctx, imgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(imgs) {
		t.Fatalf("batch returned %d verdicts for %d images", len(batch), len(imgs))
	}
	for i, img := range imgs {
		single, err := e.Detect(ctx, img)
		if err != nil {
			t.Fatal(err)
		}
		requireEqualVerdicts(t, batch[i], single)
	}
	empty, err := e.DetectBatch(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if empty == nil || len(empty) != 0 {
		t.Fatalf("empty batch = %v, want non-nil empty slice", empty)
	}
}
