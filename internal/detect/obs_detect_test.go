package detect

import (
	"context"
	"strings"
	"testing"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/obs"
	"decamouflage/internal/testutil"
)

func obsTestImage(t testing.TB, w, h int) *imgcore.Image {
	t.Helper()
	img, err := imgcore.New(w, h, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range img.Pix {
		img.Pix[i] = float64((i*37)%256) * 0.5
	}
	return img
}

func obsTestEnsemble(t testing.TB) *Ensemble {
	t.Helper()
	e, err := BuildSystem(&SystemConfig{
		DstW: 8, DstH: 8, Algorithm: "bilinear",
		Thresholds: map[string]Threshold{
			"scaling/MSE":    {Value: 100, Direction: Above},
			"filtering/SSIM": {Value: 0.5, Direction: Below},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEnsembleDetectTrace pins the span timeline a traced ensemble call
// produces: ensemble.detect at the root, one child per method carrying
// score and decision attrs, and the scorers' stage spans nested below.
// The input is RGB with 8-bit samples, so the gray stage runs and the
// min-filter takes its uint8 lane, which has no span of its own.
func TestEnsembleDetectTrace(t *testing.T) {
	testutil.VerifyNoLeaks(t) // the traced pipeline's fan-outs must all join
	ctx, tr := obs.WithTrace(context.Background(), "classify")
	if tr == nil {
		t.Skip("observability compiled out (noobs)")
	}
	e := obsTestEnsemble(t)
	img := imgcore.MustNew(32, 32, 3)
	for i := range img.Pix {
		img.Pix[i] = float64((i * 37) % 256)
	}
	if _, err := e.Detect(ctx, img); err != nil {
		t.Fatal(err)
	}
	tr.End()

	var sb strings.Builder
	if err := tr.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"ensemble.detect",
		"scaling/MSE", "filtering/SSIM", "steganalysis/CSP",
		"downscale", "upscale", "minfilter", "csp",
		"pipeline.gray", "pipeline.spectrum", "pipeline.metric",
		"score=", "attack=", "votes=",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "pipeline.u8") {
		t.Fatalf("trace has a pipeline.u8 span:\n%s", out)
	}

	kids := tr.Root().Children()
	if len(kids) != 1 || kids[0].Name() != "ensemble.detect" {
		t.Fatalf("root children = %v, want [ensemble.detect]", kids)
	}
	if got := len(kids[0].Children()); got != 3 {
		t.Fatalf("ensemble span has %d children, want 3 method spans", got)
	}
}

// TestDetectMetrics pins the aggregate counters and histograms one
// ensemble call records: per-method score latency, verdict tallies, and
// the ensemble outcome counters.
func TestDetectMetrics(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	if !obs.Enabled() {
		t.Skip("observability compiled out (noobs)")
	}
	e := obsTestEnsemble(t)

	images0 := obs.C("detect.ensemble.images").Value()
	scoreN0 := obs.H("detect.score.scaling/MSE.seconds").Count()
	ensN0 := obs.H("detect.ensemble.seconds").Count()
	stageN0 := obs.H("detect.pipeline.downscale.seconds").Count()
	memoMiss0 := obs.C("detect.pipeline.memo.misses").Value()
	verdict0 := obs.C("detect.verdict.scaling/MSE.attack").Value() +
		obs.C("detect.verdict.scaling/MSE.benign").Value()

	v, err := e.Detect(context.Background(), obsTestImage(t, 32, 32))
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Verdicts) != 3 {
		t.Fatalf("got %d verdicts", len(v.Verdicts))
	}

	if got := obs.C("detect.ensemble.images").Value() - images0; got != 1 {
		t.Errorf("ensemble images delta = %d, want 1", got)
	}
	if got := obs.H("detect.score.scaling/MSE.seconds").Count() - scoreN0; got != 1 {
		t.Errorf("scaling score histogram delta = %d, want 1", got)
	}
	if got := obs.H("detect.ensemble.seconds").Count() - ensN0; got != 1 {
		t.Errorf("ensemble histogram delta = %d, want 1", got)
	}
	if got := obs.H("detect.pipeline.downscale.seconds").Count() - stageN0; got != 1 {
		t.Errorf("downscale stage histogram delta = %d, want 1", got)
	}
	if got := obs.C("detect.pipeline.memo.misses").Value() - memoMiss0; got <= 0 {
		t.Errorf("pipeline memo miss delta = %d, want > 0", got)
	}
	got := obs.C("detect.verdict.scaling/MSE.attack").Value() +
		obs.C("detect.verdict.scaling/MSE.benign").Value()
	if got-verdict0 != 1 {
		t.Errorf("scaling verdict tally delta = %d, want 1", got-verdict0)
	}
}

// TestDetectReusesGlobalCaches pins cross-image reuse of the prepared
// resize coefficients and FFT plans: once one ensemble has scored a
// geometry, a fresh ensemble scoring the same geometry builds nothing and
// misses neither the scaling.coeff nor the fourier.plan cache.
func TestDetectReusesGlobalCaches(t *testing.T) {
	obs.Enable()
	t.Cleanup(obs.Disable)
	if !obs.Enabled() {
		t.Skip("observability compiled out (noobs)")
	}
	if _, err := obsTestEnsemble(t).Detect(context.Background(), obsTestImage(t, 32, 32)); err != nil {
		t.Fatal(err)
	}
	coeff0 := obs.C("scaling.coeff.misses").Value()
	plan0 := obs.C("fourier.plan.misses").Value()
	if _, err := obsTestEnsemble(t).Detect(context.Background(), obsTestImage(t, 32, 32)); err != nil {
		t.Fatal(err)
	}
	if got := obs.C("scaling.coeff.misses").Value() - coeff0; got != 0 {
		t.Errorf("scaling.coeff misses delta = %d, want 0", got)
	}
	if got := obs.C("fourier.plan.misses").Value() - plan0; got != 0 {
		t.Errorf("fourier.plan misses delta = %d, want 0", got)
	}
}

// TestPlainScorerStillWorks pins the plain-Scorer fallback: a Detector
// over a Scorer without ScorePipeline must keep detecting, traced or not.
func TestPlainScorerStillWorks(t *testing.T) {
	d, err := NewDetector(&stubScorer{name: "stub/metric", score: 5}, Threshold{Value: 1, Direction: Above})
	if err != nil {
		t.Fatal(err)
	}
	ctx, tr := obs.WithTrace(context.Background(), "root")
	v, err := d.DetectCtx(ctx, obsTestImage(t, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !v.Attack || v.Method != "stub/metric" {
		t.Fatalf("verdict = %+v", v)
	}
	tr.End()
}

// TestSystemConfigObsRoundTrip pins that observability settings survive
// the SystemConfig JSON round trip.
func TestSystemConfigObsRoundTrip(t *testing.T) {
	cfg := &SystemConfig{
		DstW: 32, DstH: 32, Algorithm: "bilinear",
		Thresholds: map[string]Threshold{
			"scaling/MSE": {Value: 100, Direction: Above},
		},
		Obs: &obs.Settings{
			Metrics:       true,
			MetricsOut:    "metrics.json",
			MetricsFormat: "json",
			DebugAddr:     "localhost:6060",
			CPUProfile:    "cpu.out",
			MemProfile:    "mem.out",
			EventsOut:     "events.ndjson",
			EventBuffer:   2048,
		},
	}
	data, err := MarshalSystemConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalSystemConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Obs == nil || *back.Obs != *cfg.Obs {
		t.Fatalf("Obs round trip: got %+v, want %+v", back.Obs, cfg.Obs)
	}
	// A config without obs settings must keep omitting the key.
	cfg.Obs = nil
	data, err = MarshalSystemConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"obs"`) {
		t.Fatalf("nil Obs should be omitted from JSON:\n%s", data)
	}
}
