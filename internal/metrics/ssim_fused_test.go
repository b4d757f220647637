package metrics

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/parallel"
	"decamouflage/internal/testutil"
)

// requireRefMatchesReference scores b against a reference built from refImg
// at 1/2/4/8 workers with one-row chunks, and requires every score to be
// bit-equal to the serial ssimWithReference body on refImg and refB (refB
// is b itself, or its luminance plane when refImg is single-channel and b
// is not).
func requireRefMatchesReference(t *testing.T, name string, refImg, refB, b *imgcore.Image, opts SSIMOptions) {
	t.Helper()
	ctx := context.Background()
	want, err := ssimWithReference(ctx, refImg, refB, opts, parallel.Workers(1), parallel.Grain(1))
	if err != nil {
		t.Fatalf("%s reference: %v", name, err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		popts := []parallel.Option{parallel.Workers(workers), parallel.Grain(1)}
		ref, err := NewSSIMRef(ctx, refImg, opts, popts...)
		if err != nil {
			t.Fatalf("%s workers=%d: NewSSIMRef: %v", name, workers, err)
		}
		got, err := ref.ScoreCtx(ctx, b, popts...)
		ref.Release()
		if err != nil {
			t.Fatalf("%s workers=%d: ScoreCtx: %v", name, workers, err)
		}
		if !testutil.BitEqual(got, want) {
			t.Fatalf("%s workers=%d: SSIMRef %v != reference %v", name, workers, got, want)
		}
	}
}

// TestSSIMFusedPassGeometries pins the fused moment passes on the
// geometries their loops special-case: windows wider than the image (every
// sample clamped, no interior rows or columns), widths that leave each
// remainder of the four-sample unroll in both passes (w mod 4 and
// (w − 2r) mod 4 each take 0..3 over widths 21..24 at r = 5), and a
// 3-channel comparand against a 1-channel reference.
func TestSSIMFusedPassGeometries(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, wh := range [][2]int{{1, 1}, {3, 17}, {11, 11}, {10, 4}, {21, 15}, {22, 15}, {23, 15}, {24, 15}, {13, 26}} {
		for _, c := range []int{1, 3} {
			a, b := noisePair(t, rng, wh[0], wh[1], c)
			name := fmt.Sprintf("%dx%dx%d", wh[0], wh[1], c)
			requireRefMatchesReference(t, name, a, b, b, DefaultSSIM())
			if c == 3 {
				requireRefMatchesReference(t, name+" grayRef", a.Gray(), b.Gray(), b, DefaultSSIM())
			}
		}
	}
}

// cancelAfter is a context whose Err turns to context.Canceled after a
// fixed number of polls. parallel.For polls it before every chunk, so it
// cancels a pass at a chosen band.
type cancelAfter struct {
	context.Context
	polls, after atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.polls.Add(1) > c.after.Load() {
		return context.Canceled
	}
	return nil
}

// TestSSIMScoreCancelledMidPass cancels a score inside its row pass and
// inside its column pass, and a reference build inside its column pass.
// Each returns context.Canceled, and a later score on the same reference
// stays bit-equal to the serial reference body, so a cancelled pass
// leaves no stale rows in the pooled scratch.
func TestSSIMScoreCancelledMidPass(t *testing.T) {
	const w, h = 40, 32
	rng := rand.New(rand.NewSource(45))
	a, b := noisePair(t, rng, w, h, 1)
	opts := DefaultSSIM()
	want, err := ssimWithReference(context.Background(), a, b, opts, parallel.Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	popts := []parallel.Option{parallel.Workers(1), parallel.Grain(1)}
	// With one-row chunks each pass polls once per row: the first h polls
	// belong to the row pass, the next h to the column pass.
	cancelled := func(after int64) context.Context {
		ctx := &cancelAfter{Context: context.Background()}
		ctx.after.Store(after)
		return ctx
	}
	if _, err := NewSSIMRef(cancelled(h+h/2), a, opts, popts...); !errors.Is(err, context.Canceled) {
		t.Fatalf("NewSSIMRef cancelled mid column pass: err = %v, want context.Canceled", err)
	}
	ref, err := NewSSIMRef(context.Background(), a, opts, popts...)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Release()
	for _, after := range []int64{h / 2, h + h/2} {
		if _, err := ref.ScoreCtx(cancelled(after), b, popts...); !errors.Is(err, context.Canceled) {
			t.Fatalf("ScoreCtx cancelled after %d polls: err = %v, want context.Canceled", after, err)
		}
		got, err := ref.ScoreCtx(context.Background(), b, popts...)
		if err != nil {
			t.Fatal(err)
		}
		if !testutil.BitEqual(got, want) {
			t.Fatalf("score after a cancelled pass = %v, want %v", got, want)
		}
	}
}

// TestSSIMRefAllocs pins the allocation count of one reference build and
// one score at one worker. The count is the per-call fixed cost of the two
// fused passes per side: their closures, option slices and input lists.
// Pooled planes and row scratch are reused across runs. The race detector
// drops pooled items at random, so the count is only pinned without it.
func TestSSIMRefAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	rng := rand.New(rand.NewSource(46))
	a, b := noisePair(t, rng, 64, 64, 1)
	ctx := context.Background()
	opts := DefaultSSIM()
	popt := parallel.Workers(1)
	allocs := testing.AllocsPerRun(50, func() {
		ref, err := NewSSIMRef(ctx, a, opts, popt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.ScoreCtx(ctx, b, popt); err != nil {
			t.Fatal(err)
		}
		ref.Release()
	})
	// The bound is the current count, so an allocation added per row, per
	// chunk or per plane fails it.
	if allocs > 18 {
		t.Fatalf("NewSSIMRef + ScoreCtx allocate %v times per run, want <= 18", allocs)
	}
}

// FuzzSSIMRef drives the fused moment passes over random geometry
// (including images narrower or shorter than the window), window radius,
// σ, channel layout and samples, and requires NewSSIMRef → ScoreCtx to be
// bit-equal to the serial ssimWithReference body at one and at three
// workers.
func FuzzSSIMRef(f *testing.F) {
	f.Add(uint8(16), uint8(12), uint8(5), uint8(15), uint8(0), []byte{0, 128, 255, 7})
	f.Add(uint8(1), uint8(1), uint8(5), uint8(15), uint8(1), []byte{9})
	f.Add(uint8(3), uint8(17), uint8(5), uint8(15), uint8(2), []byte{255, 1, 30})
	f.Add(uint8(23), uint8(9), uint8(2), uint8(8), uint8(1), []byte("fused"))
	f.Add(uint8(10), uint8(4), uint8(11), uint8(60), uint8(0), []byte{4, 200, 99})
	f.Fuzz(func(t *testing.T, w8, h8, r8, sigma8, layout uint8, pix []byte) {
		w, h := int(w8%40)+1, int(h8%40)+1
		opts := DefaultSSIM()
		opts.WindowRadius = int(r8%12) + 1
		opts.Sigma = float64(sigma8%64+1) / 10
		// layout: 0 gray pair, 1 RGB pair, 2 RGB comparand on a gray reference.
		c := 1
		if layout%3 > 0 {
			c = 3
		}
		a, b := imgcore.MustNew(w, h, c), imgcore.MustNew(w, h, c)
		for i := range a.Pix {
			if len(pix) > 0 {
				a.Pix[i] = float64(pix[i%len(pix)])
				b.Pix[i] = float64(pix[(7*i+3)%len(pix)]) + float64(pix[i%len(pix)])/256
			}
		}
		refImg, refB := a, b
		if layout%3 == 2 {
			refImg, refB = a.Gray(), b.Gray()
		}
		ctx := context.Background()
		want, err := ssimWithReference(ctx, refImg, refB, opts, parallel.Workers(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			popts := []parallel.Option{parallel.Workers(workers), parallel.Grain(1)}
			ref, err := NewSSIMRef(ctx, refImg, opts, popts...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ref.ScoreCtx(ctx, b, popts...)
			ref.Release()
			if err != nil {
				t.Fatal(err)
			}
			if !testutil.BitEqual(got, want) {
				t.Fatalf("%dx%dx%d r=%d σ=%v workers=%d: SSIMRef %v != reference %v",
					w, h, c, opts.WindowRadius, opts.Sigma, workers, got, want)
			}
		}
	})
}
