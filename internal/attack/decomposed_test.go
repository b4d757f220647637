package attack

import (
	"fmt"
	"math"
	"testing"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/metrics"
	"decamouflage/internal/qpsolve"
	"decamouflage/internal/scaling"
	"decamouflage/internal/testutil"
)

// CraftDecomposed implements the two-stage axis decomposition used by Xiao
// et al.'s original implementation: because separable scaling factors as
// scale(X) = L·X·Rᵀ, the 2-D problem splits into
//
//	stage 1 (vertical):   find Aᵥ (h×w') with  ‖L·Aᵥ − T‖∞ ≤ ε/2,
//	                      starting from the horizontally-scaled source O·Rᵀ;
//	stage 2 (horizontal): per source row, find A (h×w) with
//	                      ‖A·Rᵀ − Aᵥ‖∞ ≤ ε/2, starting from O.
//
// Each stage solves many small independent 1-D problems (one per column,
// then one per row), which is how the original quadratic program stays
// tractable at image scale. The total deviation at the target is at most ε
// by the triangle inequality (each stage budgets ε/2).
//
// Compared to Craft (the joint 2-D POCS solve), the decomposition is
// faster per iteration but its perturbation is not jointly minimal. It
// lives in a test file as a second attacker: TestDecomposedDetectableLikeJoint
// uses it to check that the detectors are solver-agnostic.
func CraftDecomposed(source, target *imgcore.Image, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := source.Validate(); err != nil {
		return nil, fmt.Errorf("attack: source: %w", err)
	}
	if err := target.Validate(); err != nil {
		return nil, fmt.Errorf("attack: target: %w", err)
	}
	srcW, srcH := cfg.Scaler.SrcSize()
	dstW, dstH := cfg.Scaler.DstSize()
	if source.W != srcW || source.H != srcH {
		return nil, fmt.Errorf("%w: source %v, scaler wants %dx%d", ErrShapeMismatch, source, srcW, srcH)
	}
	if target.W != dstW || target.H != dstH {
		return nil, fmt.Errorf("%w: target %v, scaler wants %dx%d", ErrShapeMismatch, target, dstW, dstH)
	}
	if source.C != target.C {
		return nil, fmt.Errorf("%w: %d vs %d", ErrChannels, source.C, target.C)
	}

	stageEps := cfg.Eps / 2
	if !cfg.SkipQuantize {
		// Keep a quantization margin inside the horizontal stage's budget.
		margin := 0.4
		if stageEps > margin {
			stageEps -= margin
		} else {
			stageEps /= 2
		}
	}

	vert := cfg.Scaler.Vertical()    // srcH -> dstH
	horiz := cfg.Scaler.Horizontal() // srcW -> dstW

	// Stage 0: horizontally-scaled source O·Rᵀ (srcH × dstW).
	oh, err := imgcore.New(dstW, srcH, source.C)
	if err != nil {
		return nil, err
	}
	for y := 0; y < srcH; y++ {
		for j, r := range horiz.Rows {
			for c := 0; c < source.C; c++ {
				var s float64
				for k, x := range r.Idx {
					s += r.W[k] * source.At(x, y, c)
				}
				oh.Set(j, y, c, s)
			}
		}
	}

	res := &Result{Converged: true}
	opts := qpsolve.Options{MaxSweeps: cfg.MaxSweeps, Tol: 0.05}

	// Stage 1: vertical attack, one 1-D solve per (column, channel).
	av := oh.Clone()
	x0 := make([]float64, srcH)
	tcol := make([]float64, dstH)
	for j := 0; j < dstW; j++ {
		for c := 0; c < source.C; c++ {
			for y := 0; y < srcH; y++ {
				x0[y] = oh.At(j, y, c)
			}
			for i := 0; i < dstH; i++ {
				tcol[i] = target.At(j, i, c)
			}
			sr, err := solve1D(vert, x0, tcol, stageEps, opts)
			if err != nil {
				return nil, fmt.Errorf("attack: stage 1 column %d: %w", j, err)
			}
			res.Sweeps += sr.Sweeps
			if !sr.Converged {
				res.Converged = false
			}
			for y := 0; y < srcH; y++ {
				av.Set(j, y, c, sr.X[y])
			}
		}
	}

	// Stage 2: horizontal attack, one 1-D solve per (row, channel).
	attackImg := source.Clone()
	x0w := make([]float64, srcW)
	trow := make([]float64, dstW)
	for y := 0; y < srcH; y++ {
		for c := 0; c < source.C; c++ {
			for x := 0; x < srcW; x++ {
				x0w[x] = source.At(x, y, c)
			}
			for j := 0; j < dstW; j++ {
				trow[j] = av.At(j, y, c)
			}
			sr, err := solve1D(horiz, x0w, trow, stageEps, opts)
			if err != nil {
				return nil, fmt.Errorf("attack: stage 2 row %d: %w", y, err)
			}
			res.Sweeps += sr.Sweeps
			if !sr.Converged {
				res.Converged = false
			}
			for x := 0; x < srcW; x++ {
				attackImg.Set(x, y, c, sr.X[x])
			}
		}
	}

	if !cfg.SkipQuantize {
		attackImg.Quantize8()
	}
	res.Attack = attackImg
	if err := res.measure(source, target, cfg); err != nil {
		return nil, err
	}
	return res, nil
}

// solve1D runs POCS on a single 1-D resampling constraint system: find x
// near x0 with |C·x − t|∞ ≤ eps elementwise and 0 ≤ x ≤ 255.
func solve1D(c *scaling.Coeff, x0, t []float64, eps float64, opts qpsolve.Options) (*qpsolve.Result, error) {
	prob := &qpsolve.Problem{
		N:           c.N,
		Box:         qpsolve.Box{Lo: 0, Hi: imgcore.MaxPixel},
		Constraints: make([]qpsolve.Constraint, c.M),
	}
	for i, row := range c.Rows {
		prob.Constraints[i] = qpsolve.Constraint{
			Idx:    row.Idx,
			W:      row.W,
			Target: t[i],
			Eps:    eps,
		}
	}
	return qpsolve.SolvePOCS(prob, x0, opts)
}

func TestCraftDecomposedValidation(t *testing.T) {
	s := mustScaler(t, 32, 32, 8, 8, scaling.Bilinear)
	src := smoothImage(1, 32, 32, 1)
	tgt := smoothImage(2, 8, 8, 1)
	if _, err := CraftDecomposed(src, tgt, Config{}); err == nil {
		t.Error("missing scaler accepted")
	}
	if _, err := CraftDecomposed(smoothImage(1, 16, 32, 1), tgt, Config{Scaler: s}); err == nil {
		t.Error("wrong source size accepted")
	}
	if _, err := CraftDecomposed(src, smoothImage(2, 9, 8, 1), Config{Scaler: s}); err == nil {
		t.Error("wrong target size accepted")
	}
	if _, err := CraftDecomposed(src, smoothImage(2, 8, 8, 3), Config{Scaler: s}); err == nil {
		t.Error("channel mismatch accepted")
	}
	if _, err := CraftDecomposed(&imgcore.Image{}, tgt, Config{Scaler: s}); err == nil {
		t.Error("empty source accepted")
	}
}

func TestCraftDecomposedHitsTarget(t *testing.T) {
	for _, alg := range []scaling.Algorithm{scaling.Nearest, scaling.Bilinear, scaling.Bicubic} {
		t.Run(alg.String(), func(t *testing.T) {
			s := mustScaler(t, 64, 64, 16, 16, alg)
			src := smoothImage(21, 64, 64, 3)
			tgt := smoothImage(22, 16, 16, 3)
			res, err := CraftDecomposed(src, tgt, Config{Scaler: s, Eps: 3})
			if err != nil {
				t.Fatal(err)
			}
			if res.MaxViolation > 3.2 {
				t.Errorf("decomposed L∞ = %v, want <= eps (+tol)", res.MaxViolation)
			}
			lo, hi := res.Attack.MinMax()
			if lo < 0 || hi > 255 {
				t.Errorf("attack image range [%v,%v]", lo, hi)
			}
		})
	}
}

func TestDecomposedAgreesWithJoint(t *testing.T) {
	s := mustScaler(t, 64, 64, 16, 16, scaling.Bilinear)
	src := smoothImage(23, 64, 64, 1)
	tgt := smoothImage(24, 16, 16, 1)
	joint, err := Craft(src, tgt, Config{Scaler: s, Eps: 3})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := CraftDecomposed(src, tgt, Config{Scaler: s, Eps: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Both must be effective attacks; the joint solve should perturb no
	// more than ~the decomposed one (it optimizes jointly).
	if joint.MaxViolation > 3.1 || dec.MaxViolation > 3.2 {
		t.Errorf("violations: joint %v, decomposed %v", joint.MaxViolation, dec.MaxViolation)
	}
	if joint.PerturbationMSE > 3*dec.PerturbationMSE+100 {
		t.Errorf("joint perturbation %v much larger than decomposed %v",
			joint.PerturbationMSE, dec.PerturbationMSE)
	}
	// Both stay visually close to the source.
	for name, img := range map[string]*imgcore.Image{"joint": joint.Attack, "decomposed": dec.Attack} {
		ssim, err := metrics.SSIM(img, src)
		if err != nil {
			t.Fatal(err)
		}
		if ssim < 0.4 {
			t.Errorf("%s attack too visible: SSIM %v", name, ssim)
		}
	}
}

func TestDecomposedDetectableLikeJoint(t *testing.T) {
	// The detectors must be solver-agnostic: a decomposed-solver attack
	// leaves the same sparse comb, so its down/up residual is comparable.
	s := mustScaler(t, 64, 64, 16, 16, scaling.Bilinear)
	src := smoothImage(25, 64, 64, 1)
	tgt := smoothImage(26, 16, 16, 1)
	joint, err := Craft(src, tgt, Config{Scaler: s, Eps: 2})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := CraftDecomposed(src, tgt, Config{Scaler: s, Eps: 2})
	if err != nil {
		t.Fatal(err)
	}
	score := func(img *imgcore.Image) float64 {
		t.Helper()
		down, err := s.Resize(img)
		if err != nil {
			t.Fatal(err)
		}
		up, err := scaling.Resize(down, 64, 64, s.Options())
		if err != nil {
			t.Fatal(err)
		}
		m, err := metrics.MSE(img, up)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	benignScore := score(src)
	jointScore := score(joint.Attack)
	decScore := score(dec.Attack)
	if jointScore < 3*benignScore || decScore < 3*benignScore {
		t.Errorf("attack scores (joint %v, dec %v) not well above benign %v",
			jointScore, decScore, benignScore)
	}
	if ratio := decScore / jointScore; ratio < 0.2 || ratio > 5 {
		t.Errorf("solver scores diverge: joint %v vs decomposed %v", jointScore, decScore)
	}
}

func TestDecomposedQuantizedIntegral(t *testing.T) {
	s := mustScaler(t, 32, 32, 8, 8, scaling.Bilinear)
	res, err := CraftDecomposed(smoothImage(27, 32, 32, 1), smoothImage(28, 8, 8, 1), Config{Scaler: s, Eps: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Attack.Pix {
		if !testutil.BitEqual(v, math.Trunc(v)) {
			t.Fatalf("pixel %d = %v not integral", i, v)
		}
	}
}

func BenchmarkCraftDecomposed128to32(b *testing.B) {
	s, err := scaling.NewScaler(128, 128, 32, 32, scaling.Options{Algorithm: scaling.Bilinear})
	if err != nil {
		b.Fatal(err)
	}
	src := smoothImage(1, 128, 128, 3)
	tgt := smoothImage(2, 32, 32, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CraftDecomposed(src, tgt, Config{Scaler: s, Eps: 2}); err != nil {
			b.Fatal(err)
		}
	}
}
