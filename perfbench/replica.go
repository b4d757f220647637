package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"decamouflage/internal/detect"
	"decamouflage/internal/filtering"
	"decamouflage/internal/fourier"
	"decamouflage/internal/imgcore"
	"decamouflage/internal/metrics"
	"decamouflage/internal/scaling"
	"decamouflage/internal/steg"
)

// Method names, as the ensemble reports them in its verdicts.
const (
	methodScaling   = "scaling/MSE"
	methodFiltering = "filtering/SSIM"
	methodCSP       = "steganalysis/CSP"
)

// replica recomposes the ensemble's stage DAG for one image from the
// layers' public calls — u8 view, gray, downscale, upscale, MSE, minimum
// filter, SSIM, spectrum, CSP — timing each call as a child span of a
// "replica" span. Its per-method scores must equal the ensemble's verdict
// scores bit for bit; that comparison is the benchmark's correctness
// oracle, and the spans are its per-layer ledger.
type replica struct {
	// down and up are the round trip's scalers; nil for a
	// steganalysis-only ensemble.
	down, up *scaling.Scaler
	// window is the minimum-filter size; 0 when no filtering member runs.
	window int
	rec    *Recorder
	// busy sums the current image's timed stage calls.
	busy time.Duration
}

// newReplica mirrors the canonical ensemble (scaler non-nil) or the
// steganalysis-only one (scaler nil).
func newReplica(scaler *scaling.Scaler, rec *Recorder) (*replica, error) {
	p := &replica{rec: rec}
	if scaler == nil {
		return p, nil
	}
	sw, sh := scaler.SrcSize()
	dw, dh := scaler.DstSize()
	var err error
	if p.down, err = scaling.NewScaler(sw, sh, dw, dh, scaler.Options()); err != nil {
		return nil, err
	}
	if p.up, err = scaling.NewScaler(dw, dh, sw, sh, scaler.Options()); err != nil {
		return nil, err
	}
	p.window = 2
	return p, nil
}

// mallocs is the process's cumulative heap allocation count. ReadMemStats
// flushes every P's allocation cache first, so the count is exact; it
// stops the world, so the harness only calls it between timed calls.
func mallocs() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Mallocs)
}

// call runs f as one span named name under parent, metering its heap
// allocations when meter is set. Without a recorder it just runs f.
func (p *replica) call(name string, trace, parent int, meter bool, f func() error) error {
	if p.rec == nil {
		return f()
	}
	var m0 int64
	if meter {
		m0 = mallocs()
	}
	start := time.Now()
	err := f()
	end := time.Now()
	allocs := int64(-1)
	if meter {
		allocs = mallocs() - m0
	}
	p.rec.Add(name, trace, parent, start, end, allocs)
	p.busy += end.Sub(start)
	return err
}

// scores runs the replica on img and returns its per-method scores and,
// when recording, the summed time of its stage calls.
func (p *replica) scores(ctx context.Context, img *imgcore.Image, trace int) (map[string]float64, time.Duration, error) {
	p.busy = 0
	root := p.rec.Open("replica", trace, 0, time.Now())
	out, err := p.stages(ctx, img, trace, root)
	p.rec.Close(root, time.Now())
	return out, p.busy, err
}

func (p *replica) stages(ctx context.Context, img *imgcore.Image, trace, root int) (map[string]float64, error) {
	out := map[string]float64{}
	var u8 *imgcore.U8Image
	if err := p.call("imgcore.to_u8", trace, root, false, func() error {
		if v, ok := img.ToU8(); ok {
			u8 = v
		}
		return nil
	}); err != nil {
		return nil, err
	}
	var gray *imgcore.Image
	if err := p.call("imgcore.gray", trace, root, false, func() error {
		gray = img.Gray()
		return nil
	}); err != nil {
		return nil, err
	}

	if p.down != nil {
		dw, dh := p.down.DstSize()
		down, err := imgcore.New(dw, dh, img.C)
		if err != nil {
			return nil, err
		}
		up, err := imgcore.New(img.W, img.H, img.C)
		if err != nil {
			return nil, err
		}
		if err := p.call("scaling.resize", trace, root, true, func() error {
			return p.down.ResizeInto(ctx, img, down)
		}); err != nil {
			return nil, err
		}
		if err := p.call("scaling.resize", trace, root, true, func() error {
			return p.up.ResizeInto(ctx, down, up)
		}); err != nil {
			return nil, err
		}
		if err := p.call("metrics.mse", trace, root, false, func() error {
			v, err := metrics.MSE(img, up)
			out[methodScaling] = v
			return err
		}); err != nil {
			return nil, err
		}
	}

	if p.window > 0 {
		var eroded *imgcore.Image
		if err := p.call("filtering.minimum", trace, root, false, func() error {
			if u8 == nil {
				f, err := filtering.MinimumCtx(ctx, img, p.window)
				eroded = f
				return err
			}
			fu, err := filtering.MinimumU8Ctx(ctx, u8, p.window)
			if err != nil {
				return err
			}
			eroded, err = imgcore.FromU8(fu)
			return err
		}); err != nil {
			return nil, err
		}
		if err := p.call("metrics.ssim", trace, root, true, func() error {
			ref, err := metrics.NewSSIMRef(ctx, gray, metrics.DefaultSSIM())
			if err != nil {
				return err
			}
			v, err := ref.ScoreCtx(ctx, eroded)
			ref.Release()
			out[methodFiltering] = v
			return err
		}); err != nil {
			return nil, err
		}
	}

	spec := make([]float64, gray.W*gray.H)
	if err := p.call("fourier.spectrum", trace, root, true, func() error {
		plan, err := fourier.Plan2DFor(gray.W, gray.H)
		if err != nil {
			return err
		}
		return plan.CenteredSpectrumInto(ctx, gray.Pix, spec)
	}); err != nil {
		return nil, err
	}
	if err := p.call("steg.analyze", trace, root, true, func() error {
		a, err := steg.AnalyzeSpectrum(spec, gray.W, gray.H, steg.Options{})
		if err != nil {
			return err
		}
		out[methodCSP] = float64(a.Count)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// checkScores reports the first verdict whose score differs from the
// replica's in any bit, or a verdict the replica has no score for.
func checkScores(v *detect.EnsembleVerdict, scores map[string]float64) error {
	if len(v.Verdicts) != len(scores) {
		return fmt.Errorf("ensemble returned %d verdicts, replica computed %d scores", len(v.Verdicts), len(scores))
	}
	for _, m := range v.Verdicts {
		s, ok := scores[m.Method]
		if !ok {
			return fmt.Errorf("replica has no score for %s", m.Method)
		}
		if math.Float64bits(s) != math.Float64bits(m.Score) {
			return fmt.Errorf("%s: ensemble score %v, replica %v", m.Method, m.Score, s)
		}
	}
	return nil
}

// sameVerdict reports whether two verdicts agree in decision, votes and
// every per-method score bit.
func sameVerdict(a, b *detect.EnsembleVerdict) bool {
	if a.Attack != b.Attack || a.Votes != b.Votes || len(a.Verdicts) != len(b.Verdicts) {
		return false
	}
	for i := range a.Verdicts {
		x, y := a.Verdicts[i], b.Verdicts[i]
		if x.Method != y.Method || x.Attack != y.Attack ||
			math.Float64bits(x.Score) != math.Float64bits(y.Score) {
			return false
		}
	}
	return true
}
