package detect

import (
	"context"
	"math"
	"testing"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/testutil"
)

// FuzzPipelineDetect cross-checks the stage-DAG pipeline against the
// kernel-composed reference on adversarial inputs: NaN/Inf pixels, 1×N
// and N×1 geometries, and degenerate scale ratios (identity, upscale,
// down to 1×1). The contract: both paths agree on error presence, and
// when both succeed every score is bit-identical (NaN pairs included)
// along with the votes and final verdict, and each member's standalone
// Score reproduces its ensemble score.
func FuzzPipelineDetect(f *testing.F) {
	f.Add(uint8(16), uint8(16), uint8(4), uint8(4), false, []byte{0, 50, 100}, uint8(0))
	f.Add(uint8(1), uint8(24), uint8(1), uint8(8), true, []byte{255, 1}, uint8(1))   // 1×N
	f.Add(uint8(24), uint8(1), uint8(8), uint8(1), false, []byte{9}, uint8(2))       // N×1
	f.Add(uint8(7), uint8(11), uint8(7), uint8(11), true, []byte("prime"), uint8(3)) // identity ratio
	f.Add(uint8(5), uint8(5), uint8(13), uint8(17), false, []byte{3, 7}, uint8(0))   // "down"scale that upscales
	f.Add(uint8(9), uint8(9), uint8(1), uint8(1), true, []byte{4}, uint8(2))         // collapse to 1×1
	f.Fuzz(func(t *testing.T, w, h, dw, dh uint8, grayscale bool, pix []byte, poison uint8) {
		srcW, srcH := int(w%33), int(h%33)
		dstW, dstH := int(dw%33), int(dh%33)
		if srcW == 0 || srcH == 0 || dstW == 0 || dstH == 0 {
			return // scaler construction rejects these; nothing differential to check
		}
		channels := 3
		if grayscale {
			channels = 1
		}
		img := imgcore.MustNew(srcW, srcH, channels)
		for i := range img.Pix {
			var v float64
			if len(pix) > 0 {
				v = float64(pix[i%len(pix)])
			}
			// Poison a stride of pixels with non-finite and extreme values
			// so every stage sees them propagate.
			switch poison % 4 {
			case 1:
				if i%7 == 3 {
					v = math.NaN()
				}
			case 2:
				if i%11 == 5 {
					v = math.Inf(1)
				}
			case 3:
				if i%13 == 2 {
					v = -v * 1e308
				}
			}
			img.Pix[i] = v
		}

		e := matrixEnsemble(t, srcW, srcH, dstW, dstH)
		ctx := context.Background()
		pipe, perr := e.Detect(ctx, img)
		legacy, lerr := legacyDetect(ctx, e, img)
		if (perr == nil) != (lerr == nil) {
			t.Fatalf("error disagreement: pipeline=%v legacy=%v", perr, lerr)
		}
		if perr != nil {
			return // both rejected; wrapped causes may name different stages
		}
		if pipe.Attack != legacy.Attack || pipe.Votes != legacy.Votes {
			t.Fatalf("verdict disagreement: pipeline (attack=%v votes=%d) vs legacy (attack=%v votes=%d)",
				pipe.Attack, pipe.Votes, legacy.Attack, legacy.Votes)
		}
		if len(pipe.Verdicts) != len(legacy.Verdicts) {
			t.Fatalf("verdict count %d != %d", len(pipe.Verdicts), len(legacy.Verdicts))
		}
		for i := range pipe.Verdicts {
			ps, ls := pipe.Verdicts[i].Score, legacy.Verdicts[i].Score
			// Zero-tolerance ApproxEqual is BitEqual plus NaN==NaN, which is
			// exactly the contract once poisoned pixels reach the metrics.
			if !testutil.ApproxEqual(ps, ls, 0, 0) {
				t.Fatalf("verdict %d (%s): pipeline score %v != legacy %v",
					i, pipe.Verdicts[i].Method, ps, ls)
			}
			if pipe.Verdicts[i].Attack != legacy.Verdicts[i].Attack {
				t.Fatalf("verdict %d (%s): attack flag disagreement", i, pipe.Verdicts[i].Method)
			}
			alone, err := e.detectors[i].scorer.Score(img)
			if err != nil {
				t.Fatalf("verdict %d (%s): standalone Score failed: %v", i, pipe.Verdicts[i].Method, err)
			}
			if !testutil.ApproxEqual(alone, ps, 0, 0) {
				t.Fatalf("verdict %d (%s): standalone score %v != ensemble %v",
					i, pipe.Verdicts[i].Method, alone, ps)
			}
		}
	})
}
