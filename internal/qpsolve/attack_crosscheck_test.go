package qpsolve_test

import (
	"math"
	"testing"

	"decamouflage/internal/attack"
	"decamouflage/internal/imgcore"
	"decamouflage/internal/qpsolve"
	"decamouflage/internal/scaling"
)

// wavesImage is a smooth one-channel image, a sum of two sinusoids about
// mid-gray: benign-like content for the attack to hide a target in.
func wavesImage(w, h int, fx, fy float64) *imgcore.Image {
	img := imgcore.MustNew(w, h, 1)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			u, v := float64(x)/float64(w), float64(y)/float64(h)
			img.Set(x, y, 0, 128+40*math.Sin(2*math.Pi*fx*u+1)+30*math.Cos(2*math.Pi*fy*v+2*u))
		}
	}
	return img
}

// attackProblem is the constraint system the attack solves for a one-
// channel target: every output pixel of scale(X) = L·X·Rᵀ within eps of
// the target, every source pixel in [0, 255].
func attackProblem(s *scaling.Scaler, target *imgcore.Image, eps float64) *qpsolve.Problem {
	srcW, srcH := s.SrcSize()
	vert, horiz := s.Vertical(), s.Horizontal()
	prob := &qpsolve.Problem{N: srcW * srcH, Box: qpsolve.Box{Lo: 0, Hi: imgcore.MaxPixel}}
	for i, vr := range vert.Rows {
		for j, hr := range horiz.Rows {
			con := qpsolve.Constraint{Target: target.At(j, i, 0), Eps: eps}
			for a, sy := range vr.Idx {
				for b, sx := range hr.Idx {
					con.Idx = append(con.Idx, sy*srcW+sx)
					con.W = append(con.W, vr.W[a]*hr.W[b])
				}
			}
			prob.Constraints = append(prob.Constraints, con)
		}
	}
	return prob
}

// TestCraftProjGradAgreesWithPOCS cross-checks the attack's POCS solve
// with the independent projected-gradient solver: it solves the problem
// Craft builds, inside Craft's quantization margin (eps 3 − 0.6), and its
// image is quantized and measured against the target the same way. Both
// must hit the target about equally well.
func TestCraftProjGradAgreesWithPOCS(t *testing.T) {
	s, err := scaling.NewScaler(24, 24, 6, 6, scaling.Options{Algorithm: scaling.Bilinear})
	if err != nil {
		t.Fatal(err)
	}
	src := wavesImage(24, 24, 1.5, 2.5)
	tgt := wavesImage(6, 6, 0.7, 1.1)
	pocs, err := attack.Craft(src, tgt, attack.Config{Scaler: s, Eps: 3})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := qpsolve.SolveProjGrad(attackProblem(s, tgt, 3-0.6), src.Pix, qpsolve.Options{MaxSweeps: 50000, Tol: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	pgImg := &imgcore.Image{W: 24, H: 24, C: 1, Pix: sr.X}
	pgImg.Quantize8()
	pg, err := attack.Success(pgImg, tgt, s)
	if err != nil {
		t.Fatal(err)
	}
	if pocs.MaxViolation > 3.01 {
		t.Errorf("POCS violation %v", pocs.MaxViolation)
	}
	if pg.LInf > 4 {
		t.Errorf("ProjGrad violation %v", pg.LInf)
	}
	if math.Abs(pocs.DownscaledMSE-pg.MSE) > 10 {
		t.Errorf("solver disagreement: POCS %v vs PG %v", pocs.DownscaledMSE, pg.MSE)
	}
}
