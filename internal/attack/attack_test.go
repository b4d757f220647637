package attack

import (
	"math"
	"math/rand"
	"testing"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/metrics"
	"decamouflage/internal/scaling"
	"decamouflage/internal/testutil"
)

func smoothImage(seed int64, w, h, c int) *imgcore.Image {
	// Smooth low-frequency image: sum of a few sinusoids, benign-like.
	img := imgcore.MustNew(w, h, c)
	rng := rand.New(rand.NewSource(seed))
	type wave struct{ fx, fy, ph, amp float64 }
	waves := make([]wave, 4)
	for i := range waves {
		waves[i] = wave{
			fx: rng.Float64() * 4, fy: rng.Float64() * 4,
			ph: rng.Float64() * 2 * math.Pi, amp: 20 + rng.Float64()*25,
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			for ch := 0; ch < c; ch++ {
				v := 128.0
				for _, wv := range waves {
					v += wv.amp * math.Sin(2*math.Pi*(wv.fx*float64(x)/float64(w)+wv.fy*float64(y)/float64(h))+wv.ph+float64(ch))
				}
				if v < 0 {
					v = 0
				} else if v > 255 {
					v = 255
				}
				img.Set(x, y, ch, v)
			}
		}
	}
	return img
}

func mustScaler(t testing.TB, srcW, srcH, dstW, dstH int, alg scaling.Algorithm) *scaling.Scaler {
	t.Helper()
	s, err := scaling.NewScaler(srcW, srcH, dstW, dstH, scaling.Options{Algorithm: alg})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCraftValidation(t *testing.T) {
	s := mustScaler(t, 32, 32, 8, 8, scaling.Bilinear)
	src := smoothImage(1, 32, 32, 1)
	tgt := smoothImage(2, 8, 8, 1)

	if _, err := Craft(src, tgt, Config{}); err == nil {
		t.Error("Craft without scaler = nil error")
	}
	if _, err := Craft(src, tgt, Config{Scaler: s, Eps: -1}); err == nil {
		t.Error("Craft negative eps = nil error")
	}
	if _, err := Craft(smoothImage(1, 16, 32, 1), tgt, Config{Scaler: s}); err == nil {
		t.Error("Craft wrong source size = nil error")
	}
	if _, err := Craft(src, smoothImage(2, 9, 8, 1), Config{Scaler: s}); err == nil {
		t.Error("Craft wrong target size = nil error")
	}
	if _, err := Craft(src, smoothImage(2, 8, 8, 3), Config{Scaler: s}); err == nil {
		t.Error("Craft channel mismatch = nil error")
	}
	if _, err := Craft(&imgcore.Image{}, tgt, Config{Scaler: s}); err == nil {
		t.Error("Craft empty source = nil error")
	}
	if _, err := Craft(src, &imgcore.Image{}, Config{Scaler: s}); err == nil {
		t.Error("Craft empty target = nil error")
	}
}

// The attack contract: scale(A) ≈ T within eps, and A stays close to O.
func TestCraftHitsTargetEveryAlgorithm(t *testing.T) {
	for _, alg := range []scaling.Algorithm{scaling.Nearest, scaling.Bilinear, scaling.Bicubic} {
		t.Run(alg.String(), func(t *testing.T) {
			s := mustScaler(t, 64, 64, 16, 16, alg)
			src := smoothImage(3, 64, 64, 3)
			tgt := smoothImage(4, 16, 16, 3)
			res, err := Craft(src, tgt, Config{Scaler: s, Eps: 2})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Errorf("solver did not converge (violation %v)", res.MaxViolation)
			}
			if res.MaxViolation > 2.01 {
				t.Errorf("L∞(scale(A),T) = %v, want <= 2", res.MaxViolation)
			}
			// Attack must not wreck the source: the perturbation only
			// touches the sparse pixels the kernel samples.
			if res.PerturbationMSE > 4000 {
				t.Errorf("perturbation MSE = %v, unexpectedly large", res.PerturbationMSE)
			}
			lo, hi := res.Attack.MinMax()
			if lo < 0 || hi > 255 {
				t.Errorf("attack image out of range: [%v,%v]", lo, hi)
			}
		})
	}
}

func TestCraftNearestIsExact(t *testing.T) {
	// Nearest-neighbor sampling: each constraint has a single unit weight,
	// so one sweep sets the sampled pixel to the target exactly.
	s := mustScaler(t, 32, 32, 8, 8, scaling.Nearest)
	src := smoothImage(5, 32, 32, 1)
	tgt := smoothImage(6, 8, 8, 1)
	res, err := Craft(src, tgt, Config{Scaler: s, Eps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("nearest attack did not converge")
	}
	if res.MaxViolation > 1 {
		t.Errorf("nearest L∞ = %v", res.MaxViolation)
	}
	// Only 64 of 1024 pixels should have changed.
	changed := 0
	for i := range src.Pix {
		if math.Abs(res.Attack.Pix[i]-src.Pix[i]) > 1 {
			changed++
		}
	}
	if changed > 64 {
		t.Errorf("nearest attack changed %d pixels, want <= 64", changed)
	}
}

func TestCraftVisualIndistinguishability(t *testing.T) {
	// SSIM(A, O) should stay high: the attack hides in sparse pixels.
	s := mustScaler(t, 96, 96, 16, 16, scaling.Bilinear)
	src := smoothImage(7, 96, 96, 3)
	tgt := smoothImage(8, 16, 16, 3)
	res, err := Craft(src, tgt, Config{Scaler: s, Eps: 2})
	if err != nil {
		t.Fatal(err)
	}
	ssim, err := metrics.SSIM(res.Attack, src)
	if err != nil {
		t.Fatal(err)
	}
	// Smooth synthetic covers have very low local variance, which makes
	// SSIM harsher than on natural photos; 0.5 still indicates the global
	// structure survives.
	if ssim < 0.5 {
		t.Errorf("SSIM(A,O) = %v, attack too visible", ssim)
	}
}

func TestCraftQuantizedOutputIsIntegral(t *testing.T) {
	s := mustScaler(t, 32, 32, 8, 8, scaling.Bilinear)
	res, err := Craft(smoothImage(9, 32, 32, 1), smoothImage(10, 8, 8, 1), Config{Scaler: s, Eps: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Attack.Pix {
		if !testutil.BitEqual(v, math.Trunc(v)) {
			t.Fatalf("pixel %d = %v not integral after quantization", i, v)
		}
	}
	// SkipQuantize leaves floats.
	res, err = Craft(smoothImage(9, 32, 32, 1), smoothImage(10, 8, 8, 1), Config{Scaler: s, Eps: 3, SkipQuantize: true})
	if err != nil {
		t.Fatal(err)
	}
	// Solver tolerance (0.05) is allowed on top of eps.
	if res.MaxViolation > 3.06 {
		t.Errorf("unquantized violation %v > eps+tol", res.MaxViolation)
	}
}

func TestCraftAgainstAntialiasedScalerDegrades(t *testing.T) {
	// Against an antialiased (defended) scaler the kernel covers every
	// source pixel, so hiding a target requires massive perturbation: the
	// perturbation MSE must be far larger than in the undefended case.
	srcW, srcH, dstW, dstH := 64, 64, 16, 16
	src := smoothImage(13, srcW, srcH, 1)
	tgt := smoothImage(14, dstW, dstH, 1)

	plain := mustScaler(t, srcW, srcH, dstW, dstH, scaling.Bilinear)
	resPlain, err := Craft(src, tgt, Config{Scaler: plain, Eps: 2})
	if err != nil {
		t.Fatal(err)
	}
	defended, err := scaling.NewScaler(srcW, srcH, dstW, dstH, scaling.Options{Algorithm: scaling.Bilinear, Antialias: true})
	if err != nil {
		t.Fatal(err)
	}
	resDef, err := Craft(src, tgt, Config{Scaler: defended, Eps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resDef.PerturbationMSE < 2*resPlain.PerturbationMSE {
		t.Errorf("defended attack perturbation %v not much larger than undefended %v",
			resDef.PerturbationMSE, resPlain.PerturbationMSE)
	}
}

func TestSuccessOracle(t *testing.T) {
	s := mustScaler(t, 64, 64, 16, 16, scaling.Bilinear)
	src := smoothImage(15, 64, 64, 1)
	tgt := smoothImage(16, 16, 16, 1)
	res, err := Craft(src, tgt, Config{Scaler: s, Eps: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Success(res.Attack, tgt, s)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Effective {
		t.Errorf("crafted attack judged ineffective: %+v", rep)
	}
	// A benign image must NOT be an effective attack against an unrelated
	// target.
	rep, err = Success(src, tgt, s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Effective {
		t.Errorf("benign image judged effective attack: %+v", rep)
	}
	if _, err := Success(src, tgt, nil); err == nil {
		t.Error("Success(nil scaler) = nil error")
	}
	if _, err := Success(src, smoothImage(1, 9, 9, 1), s); err == nil {
		t.Error("Success with mismatched target = nil error")
	}
}

func TestCraftUpscaleGeometryFails(t *testing.T) {
	// Upscaling scalers leave no slack pixels; the attack should still run
	// (constraints are denser than variables) but typically cannot hide:
	// perturbation becomes enormous. We only require no error and a valid
	// image.
	s := mustScaler(t, 16, 16, 32, 32, scaling.Bilinear)
	src := smoothImage(17, 16, 16, 1)
	tgt := smoothImage(18, 32, 32, 1)
	res, err := Craft(src, tgt, Config{Scaler: s, Eps: 8, MaxSweeps: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attack == nil || res.Attack.HasNaN() {
		t.Error("upscale attack produced invalid image")
	}
}

func BenchmarkCraftBilinear256to64(b *testing.B) {
	s, err := scaling.NewScaler(256, 256, 64, 64, scaling.Options{Algorithm: scaling.Bilinear})
	if err != nil {
		b.Fatal(err)
	}
	src := smoothImage(1, 256, 256, 3)
	tgt := smoothImage(2, 64, 64, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Craft(src, tgt, Config{Scaler: s, Eps: 2}); err != nil {
			b.Fatal(err)
		}
	}
}
