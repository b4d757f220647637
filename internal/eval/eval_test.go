package eval

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"

	"decamouflage/internal/dataset"
	"decamouflage/internal/detect"
	"decamouflage/internal/imgcore"
	"decamouflage/internal/scaling"
	"decamouflage/internal/steg"
	"decamouflage/internal/testutil"
)

func TestConfusionStats(t *testing.T) {
	var c ConfusionStats
	// 8 benign (1 flagged), 8 attacks (7 flagged).
	for i := 0; i < 8; i++ {
		c.Record(false, i == 0)
		c.Record(true, i != 0)
	}
	if c.Total() != 16 {
		t.Fatalf("Total = %d", c.Total())
	}
	if got := c.Accuracy(); math.Abs(got-14.0/16) > 1e-12 {
		t.Errorf("Accuracy = %v", got)
	}
	if got := c.Precision(); math.Abs(got-7.0/8) > 1e-12 {
		t.Errorf("Precision = %v", got)
	}
	if got := c.Recall(); math.Abs(got-7.0/8) > 1e-12 {
		t.Errorf("Recall = %v", got)
	}
	if got := c.FAR(); math.Abs(got-1.0/8) > 1e-12 {
		t.Errorf("FAR = %v", got)
	}
	if got := c.FRR(); math.Abs(got-1.0/8) > 1e-12 {
		t.Errorf("FRR = %v", got)
	}
	if c.String() == "" {
		t.Error("empty String")
	}
	var sum ConfusionStats
	sum.Add(c)
	sum.Add(c)
	if sum.Total() != 32 {
		t.Errorf("Add total = %d", sum.Total())
	}
}

func TestConfusionStatsEmptyDenominators(t *testing.T) {
	var c ConfusionStats
	if !testutil.BitEqual(c.Accuracy(), 0) || !testutil.BitEqual(c.Precision(), 0) || !testutil.BitEqual(c.Recall(), 0) || !testutil.BitEqual(c.FAR(), 0) || !testutil.BitEqual(c.FRR(), 0) {
		t.Error("empty stats should be all zero")
	}
}

func TestCorpusSpecValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := BuildCorpus(ctx, CorpusSpec{}); err == nil {
		t.Error("zero spec accepted")
	}
	if _, err := BuildCorpus(ctx, CorpusSpec{Corpus: dataset.CaltechLike, N: 1}); err == nil {
		t.Error("missing geometry accepted")
	}
	if _, err := BuildCorpus(ctx, CorpusSpec{N: 1, SrcW: 32, SrcH: 32, DstW: 8, DstH: 8}); err == nil {
		t.Error("missing corpus accepted")
	}
}

func smallSpec(n int) CorpusSpec {
	return CorpusSpec{
		Corpus: dataset.CaltechLike,
		N:      n,
		SrcW:   64, SrcH: 64, DstW: 16, DstH: 16,
		Seed: 42,
	}
}

func TestBuildCorpus(t *testing.T) {
	ctx := context.Background()
	c, err := BuildCorpus(ctx, smallSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Benign) != 4 || len(c.Attacks) != 4 || len(c.Targets) != 4 {
		t.Fatalf("corpus sizes %d/%d/%d", len(c.Benign), len(c.Attacks), len(c.Targets))
	}
	for i := range c.Benign {
		if c.Benign[i] == nil || c.Attacks[i] == nil || c.Targets[i] == nil {
			t.Fatalf("nil entry at %d", i)
		}
		if !c.Benign[i].SameShape(c.Attacks[i]) {
			t.Fatalf("attack %d geometry mismatch", i)
		}
	}
	// Attacks actually work: downscale lands near target.
	down, err := c.Scaler.Resize(c.Attacks[0])
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i := range down.Pix {
		if d := math.Abs(down.Pix[i] - c.Targets[0].Pix[i]); d > worst {
			worst = d
		}
	}
	if worst > 3 {
		t.Errorf("attack L∞ from target = %v", worst)
	}
}

func TestBuildCorpusDeterministic(t *testing.T) {
	ctx := context.Background()
	a, err := BuildCorpus(ctx, smallSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildCorpus(ctx, smallSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Attacks[1].Pix {
		if !testutil.BitEqual(a.Attacks[1].Pix[i], b.Attacks[1].Pix[i]) {
			t.Fatal("corpus not deterministic")
		}
	}
}

func TestBuildCorpusCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildCorpus(ctx, smallSpec(64)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancellation not honoured: %v", err)
	}
}

func TestBuildCorpusCrossKernel(t *testing.T) {
	ctx := context.Background()
	spec := smallSpec(2)
	spec.Algorithm = scaling.Bilinear
	spec.AttackAlgorithm = scaling.Nearest
	c, err := BuildCorpus(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if c.Scaler.Options().Algorithm != scaling.Bilinear {
		t.Errorf("defender scaler algorithm = %v", c.Scaler.Options().Algorithm)
	}
}

func TestScorePairAndEvaluateThreshold(t *testing.T) {
	ctx := context.Background()
	c, err := BuildCorpus(ctx, smallSpec(4))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := detect.NewScalingScorer(c.Scaler, detect.MSE)
	if err != nil {
		t.Fatal(err)
	}
	benign, attacks, err := ScorePair(ctx, sc, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(benign) != 4 || len(attacks) != 4 {
		t.Fatalf("score lengths %d/%d", len(benign), len(attacks))
	}
	// Attacks must score far higher (the detection premise).
	for i := range benign {
		if attacks[i] <= benign[i] {
			t.Errorf("attack %d MSE %v <= benign %v", i, attacks[i], benign[i])
		}
	}
	wb, err := detect.CalibrateWhiteBox(benign, attacks)
	if err != nil {
		t.Fatal(err)
	}
	cs := EvaluateThreshold(wb.Threshold, benign, attacks)
	if cs.Accuracy() < 0.99 {
		t.Errorf("threshold accuracy = %v", cs.Accuracy())
	}
	if _, _, err := ScorePair(ctx, nil, c); err == nil {
		t.Error("nil scorer accepted")
	}
}

func TestCalibrateAndEvaluateEnsemble(t *testing.T) {
	ctx := context.Background()
	c, err := BuildCorpus(ctx, smallSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	wb, err := CalibrateWhiteBox(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	// Canonical order, each threshold the one CalibrateWhiteBox picks
	// from that scorer's scores.
	ss, err := detect.NewScalingScorer(c.Scaler, detect.MSE)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := detect.NewFilteringScorer(2, detect.SSIM)
	if err != nil {
		t.Fatal(err)
	}
	if len(wb) != 2 {
		t.Fatalf("got %d methods, want 2", len(wb))
	}
	for i, s := range []detect.Scorer{ss, fs} {
		b, a, err := ScorePair(ctx, s, c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := detect.CalibrateWhiteBox(b, a)
		if err != nil {
			t.Fatal(err)
		}
		got := wb[i]
		if got.Name != s.Name() || got.Threshold.Direction != want.Threshold.Direction ||
			!testutil.BitEqual(got.Threshold.Value, want.Threshold.Value) ||
			!testutil.BitEqual(got.TrainAccuracy, want.TrainAccuracy) {
			t.Errorf("method %d = %+v, want %s %+v acc %v", i, wb[i], s.Name(), want.Threshold, want.TrainAccuracy)
		}
	}

	dstW, dstH := c.Scaler.DstSize()
	e, err := detect.BuildSystem(&detect.SystemConfig{
		DstW: dstW, DstH: dstH, Algorithm: c.Scaler.Options().Algorithm.String(),
		Thresholds: Thresholds(wb),
	})
	if err != nil {
		t.Fatal(err)
	}
	vote, members, err := EvaluateEnsemble(ctx, e, c)
	if err != nil {
		t.Fatal(err)
	}
	if vote.Total() != 6 {
		t.Fatalf("ensemble total = %d", vote.Total())
	}
	if vote.Accuracy() < 0.8 {
		t.Errorf("ensemble accuracy = %v", vote.Accuracy())
	}
	// Each member's stats are its threshold applied to its own scores.
	if len(members) != 3 {
		t.Fatalf("got %d member stats, want 3", len(members))
	}
	for i, s := range []detect.Scorer{ss, fs} {
		b, a, err := ScorePair(ctx, s, c)
		if err != nil {
			t.Fatal(err)
		}
		if want := EvaluateThreshold(wb[i].Threshold, b, a); members[i] != want {
			t.Errorf("member %s stats %+v, want %+v", s.Name(), members[i], want)
		}
	}
	if _, _, err := EvaluateEnsemble(ctx, nil, c); err == nil {
		t.Error("nil ensemble accepted")
	}
}

func TestCalibrateBlackBoxScoresBenignOnly(t *testing.T) {
	ctx := context.Background()
	c, err := BuildCorpus(ctx, smallSpec(6))
	if err != nil {
		t.Fatal(err)
	}
	// No attacks: black-box calibration must not need them.
	benignOnly := &Corpus{Benign: c.Benign, Scaler: c.Scaler}
	bb, err := CalibrateBlackBox(ctx, benignOnly, 2)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := detect.NewScalingScorer(c.Scaler, detect.MSE)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := detect.NewFilteringScorer(2, detect.SSIM)
	if err != nil {
		t.Fatal(err)
	}
	if len(bb) != 2 {
		t.Fatalf("got %d methods, want 2", len(bb))
	}
	for i, m := range []struct {
		s      detect.Scorer
		metric detect.Metric
	}{{ss, detect.MSE}, {fs, detect.SSIM}} {
		b, err := Scores(ctx, m.s, c.Benign)
		if err != nil {
			t.Fatal(err)
		}
		want, err := detect.CalibrateBlackBox(b, 2, m.metric.AttackDirection())
		if err != nil {
			t.Fatal(err)
		}
		got := bb[i]
		if got.Name != m.s.Name() || got.Threshold.Direction != want.Direction ||
			!testutil.BitEqual(got.Threshold.Value, want.Value) || !testutil.BitEqual(got.TrainAccuracy, 0) {
			t.Errorf("method %d = %+v, want %s %+v", i, bb[i], m.s.Name(), want)
		}
	}
	if _, err := CalibrateBlackBox(ctx, &Corpus{Benign: c.Benign}, 2); err == nil {
		t.Error("corpus without a scaler accepted")
	}
	if _, err := CalibrateBlackBox(ctx, benignOnly, 0); err == nil {
		t.Error("percentile 0 accepted")
	}
}

// TestScores pins the parallel fan-out to the serial scores, bit for bit,
// at several worker counts.
func TestScores(t *testing.T) {
	c, err := BuildCorpus(context.Background(), smallSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := detect.NewFilteringScorer(2, detect.SSIM)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(c.Attacks))
	for i, img := range c.Attacks {
		if want[i], err = fs.Score(img); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(workers)
		got, err := Scores(context.Background(), fs, c.Attacks)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !testutil.BitEqual(got[i], want[i]) {
				t.Fatalf("workers=%d image %d: %v != serial %v", workers, i, got[i], want[i])
			}
		}
	}
	if _, err := Scores(context.Background(), nil, c.Attacks); err == nil {
		t.Error("nil scorer accepted")
	}
	if _, err := Scores(context.Background(), fs, append(c.Attacks, &imgcore.Image{})); err == nil {
		t.Error("invalid image accepted")
	}
}

func TestMeasureRuntime(t *testing.T) {
	g, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.CaltechLike, W: 32, H: 32, C: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	imgs := g.Batch(3)
	rs, err := MeasureRuntime(detect.NewStegScorer(steg.Options{}), imgs)
	if err != nil {
		t.Fatal(err)
	}
	if rs.N != 3 || rs.MeanMillis < 0 {
		t.Errorf("runtime stats %+v", rs)
	}
	if _, err := MeasureRuntime(nil, imgs); err == nil {
		t.Error("nil scorer accepted")
	}
	if _, err := MeasureRuntime(detect.NewStegScorer(steg.Options{}), nil); err == nil {
		t.Error("empty image set accepted")
	}
	imgs = append(imgs, &imgcore.Image{})
	if _, err := MeasureRuntime(detect.NewStegScorer(steg.Options{}), imgs); err == nil {
		t.Error("invalid image accepted")
	}
}

func TestForEachParallelPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	err := forEachParallel(context.Background(), 50, func(i int) error {
		if i == 17 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("error not propagated: %v", err)
	}
}

func TestForEachParallelZeroItems(t *testing.T) {
	if err := forEachParallel(context.Background(), 0, func(int) error { return nil }); err != nil {
		t.Errorf("n=0 returned %v", err)
	}
}
