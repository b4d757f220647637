//go:build pooltrace

package detect

// Runtime counterpart of declint's static poollife check: under the
// pooltrace build tag every pooled borrow is ledgered, and these tests
// assert the ledger balances — each Intermediates buffer released exactly
// once — on the happy path and, the hard case, when a batch is cancelled
// midway with workers still holding pooled substrates.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"decamouflage/internal/imgcore"
)

// rgbImage builds a 3-channel image so the gray stage must borrow a
// pooled conversion plane (single-channel inputs skip the pool).
func rgbImage(w, h int, seed float64) *imgcore.Image {
	pix := make([]float64, w*h*3)
	for i := range pix {
		pix[i] = float64(i%251)/251 + seed/1024
	}
	return &imgcore.Image{W: w, H: h, C: 3, Pix: pix}
}

// grayScorer is a pipelineScorer that forces the pooled gray substrate.
type grayScorer struct {
	after func() // runs once after the first completed score, if set
	once  sync.Once
}

func (s *grayScorer) Name() string { return "pooltrace/gray" }

func (s *grayScorer) Score(img *imgcore.Image) (float64, error) {
	return float64(img.W), nil
}

func (s *grayScorer) ScorePipeline(ctx context.Context, in *Intermediates) (float64, error) {
	g, err := in.gray(ctx)
	if err != nil {
		return 0, err
	}
	if s.after != nil {
		s.once.Do(s.after)
	}
	return g.Pix[0], nil
}

func grayEnsemble(t *testing.T, sc *grayScorer) *Ensemble {
	t.Helper()
	d, err := NewDetector(sc, Threshold{Value: 1e9, Direction: Above})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEnsemble(d)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestPoolTraceBatchBalances: a full batch releases every pooled borrow
// exactly once.
func TestPoolTraceBatchBalances(t *testing.T) {
	poolTraceReset()
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
}

// TestPoolTraceStandaloneScoreBalances: standalone Score and
// Detector.Detect calls — the calibration and evaluation path — open a
// one-member table per image and must return every pooled buffer it
// borrowed (gray plane, round trip, min filter, SSIM reference), on 8-bit
// and fractional inputs alike.
func TestPoolTraceStandaloneScoreBalances(t *testing.T) {
	poolTraceReset()
	e := matrixEnsemble(t, 16, 12, 4, 3)
	for i := 0; i < 2; i++ {
		img := corpusImage(t, int64(i), i, 16, 12)
		frac := rgbImage(16, 12, float64(i))
		for _, d := range e.Detectors() {
			for _, in := range []*imgcore.Image{img, frac} {
				if _, err := d.scorer.Score(in); err != nil {
					t.Fatal(err)
				}
				if _, err := d.Detect(in); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := poolTraceVerify(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolTraceMidBatchCancellation cancels the batch from inside the
// first completed score, while other workers hold live pooled substrates
// and every worker still has images queued. The batch must error, and the
// ledger must still balance: cancellation may skip work, but it may never
// strand or double-free a pooled buffer.
func TestPoolTraceMidBatchCancellation(t *testing.T) {
	poolTraceReset()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := grayEnsemble(t, &grayScorer{after: cancel})
	// Enough images that every worker has a next image queued when the
	// cancel lands, so the batch error is deterministic.
	imgs := make([]*imgcore.Image, 4*runtime.GOMAXPROCS(0)+8)
	for i := range imgs {
		imgs[i] = rgbImage(16, 12, float64(i))
	}
	_, err := e.DetectBatch(ctx, imgs)
	if err == nil {
		t.Fatal("cancelled batch returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch error = %v, want context.Canceled in its chain", err)
	}
	if verr := poolTraceVerify(); verr != nil {
		t.Fatal(verr)
	}
}
