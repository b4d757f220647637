package metrics

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"decamouflage/internal/filtering"
	"decamouflage/internal/imgcore"
	"decamouflage/internal/testutil"
)

func randImage(seed int64, w, h, c int) *imgcore.Image {
	img := imgcore.MustNew(w, h, c)
	rng := rand.New(rand.NewSource(seed))
	for i := range img.Pix {
		img.Pix[i] = rng.Float64() * 255
	}
	return img
}

func TestMSEBasics(t *testing.T) {
	a := imgcore.MustNew(2, 2, 1)
	b := imgcore.MustNew(2, 2, 1)
	copy(a.Pix, []float64{0, 0, 0, 0})
	copy(b.Pix, []float64{2, 2, 2, 2})
	got, err := MSE(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.BitEqual(got, 4) {
		t.Errorf("MSE = %v, want 4", got)
	}
	if got, _ := MSE(a, a); !testutil.BitEqual(got, 0) {
		t.Errorf("MSE(a,a) = %v, want 0", got)
	}
}

func TestMSEErrors(t *testing.T) {
	a := randImage(1, 4, 4, 1)
	b := randImage(2, 5, 4, 1)
	if _, err := MSE(a, b); err == nil {
		t.Error("MSE shape mismatch = nil error")
	}
	if _, err := MSE(a, &imgcore.Image{}); err == nil {
		t.Error("MSE with empty image = nil error")
	}
	if _, err := MSE(&imgcore.Image{}, a); err == nil {
		t.Error("MSE with empty first image = nil error")
	}
}

// Property: MSE is symmetric, non-negative, zero iff identical, and scales
// quadratically with the perturbation.
func TestMSEProperties(t *testing.T) {
	f := func(seed int64) bool {
		a := randImage(seed, 6, 5, 3)
		b := randImage(seed+1000, 6, 5, 3)
		m1, err1 := MSE(a, b)
		m2, err2 := MSE(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		if m1 < 0 || math.Abs(m1-m2) > 1e-9 {
			return false
		}
		// Quadratic scaling: doubling the difference quadruples MSE.
		d, err := b.Sub(a)
		if err != nil {
			return false
		}
		big, err := a.Add(d.Scale(2))
		if err != nil {
			return false
		}
		m4, err := MSE(a, big)
		if err != nil {
			return false
		}
		return math.Abs(m4-4*m1) <= 1e-6*(1+m4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPSNR(t *testing.T) {
	a := imgcore.MustNew(2, 2, 1)
	b := imgcore.MustNew(2, 2, 1)
	b.Fill(255)
	got, err := PSNR(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.BitEqual(got, 0) { // MSE = 255^2 -> PSNR = 0 dB
		t.Errorf("PSNR = %v, want 0", got)
	}
	same, err := PSNR(a, a)
	if err != nil || !math.IsInf(same, 1) {
		t.Errorf("PSNR identical = %v,%v, want +Inf", same, err)
	}
	if _, err := PSNR(a, randImage(1, 3, 3, 1)); err == nil {
		t.Error("PSNR shape mismatch = nil error")
	}
}

func TestSSIMIdentity(t *testing.T) {
	a := randImage(7, 32, 32, 3)
	got, err := SSIM(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("SSIM(a,a) = %v, want 1", got)
	}
}

func TestSSIMSymmetryAndRange(t *testing.T) {
	f := func(seed int64) bool {
		a := randImage(seed, 24, 24, 1)
		b := randImage(seed+99, 24, 24, 1)
		s1, err1 := SSIM(a, b)
		s2, err2 := SSIM(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(s1-s2) <= 1e-9 && s1 >= -1.001 && s1 <= 1.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSSIMOrdersDegradation(t *testing.T) {
	// A lightly-perturbed copy must score higher SSIM than a heavily
	// perturbed one.
	a := randImage(11, 48, 48, 1)
	rng := rand.New(rand.NewSource(12))
	light := a.Clone()
	heavy := a.Clone()
	for i := range light.Pix {
		light.Pix[i] += rng.NormFloat64() * 3
		heavy.Pix[i] += rng.NormFloat64() * 60
	}
	sLight, err := SSIM(a, light)
	if err != nil {
		t.Fatal(err)
	}
	sHeavy, err := SSIM(a, heavy)
	if err != nil {
		t.Fatal(err)
	}
	if sLight <= sHeavy {
		t.Errorf("SSIM ordering violated: light %v <= heavy %v", sLight, sHeavy)
	}
	if sLight < 0.8 {
		t.Errorf("light perturbation SSIM = %v, want > 0.8", sLight)
	}
}

func TestSSIMConstantImages(t *testing.T) {
	a := imgcore.MustNew(16, 16, 1)
	a.Fill(100)
	b := a.Clone()
	got, err := SSIM(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-9 {
		t.Errorf("SSIM of identical constants = %v", got)
	}
	// Different constants: luminance term only.
	c := imgcore.MustNew(16, 16, 1)
	c.Fill(200)
	got, err = SSIM(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if got >= 1 || got <= 0 {
		t.Errorf("SSIM(100,200) = %v, want in (0,1)", got)
	}
}

func TestSSIMWithBadOptions(t *testing.T) {
	a := randImage(1, 16, 16, 1)
	cases := []SSIMOptions{
		{WindowRadius: 0, Sigma: 1.5, L: 255},
		{WindowRadius: 3, Sigma: 0, L: 255},
		{WindowRadius: 3, Sigma: 1.5, L: 0},
	}
	for i, o := range cases {
		if _, err := SSIMWith(a, a, o); err == nil {
			t.Errorf("case %d: SSIMWith bad options = nil error", i)
		}
	}
	if _, err := SSIMWith(a, randImage(2, 8, 8, 1), DefaultSSIM()); err == nil {
		t.Error("SSIMWith shape mismatch = nil error")
	}
}

func TestSSIMColorUsesLuminance(t *testing.T) {
	// Two color images with identical luminance should be near-identical
	// under SSIM even if chroma differs.
	a := imgcore.MustNew(16, 16, 3)
	b := imgcore.MustNew(16, 16, 3)
	for i := 0; i < 16*16; i++ {
		// a: pure gray 100. b: r/g/b chosen to keep BT.601 luma = 100.
		for c := 0; c < 3; c++ {
			a.Pix[i*3+c] = 100
		}
		b.Pix[i*3] = 120
		b.Pix[i*3+2] = 120
		b.Pix[i*3+1] = (100 - 0.299*120 - 0.114*120) / 0.587
	}
	got, err := SSIM(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-6 {
		t.Errorf("SSIM with equal luminance = %v, want ~1", got)
	}
}

func TestGaussianKernelNormalized(t *testing.T) {
	k := filtering.GaussianKernel(5, 1.5)
	if len(k) != 11 {
		t.Fatalf("kernel length = %d", len(k))
	}
	var sum float64
	for _, v := range k {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("kernel sum = %v", sum)
	}
	// Symmetric, peaked at center.
	for i := 0; i < 5; i++ {
		if !testutil.BitEqual(k[i], k[10-i]) {
			t.Errorf("kernel asymmetric at %d", i)
		}
	}
	if k[5] <= k[4] {
		t.Error("kernel not peaked at center")
	}
}

func TestBlurPreservesConstant(t *testing.T) {
	src := make([]float64, 12*9)
	for i := range src {
		src[i] = 42
	}
	out := make([]float64, len(src))
	if err := filtering.BlurPlane(context.Background(), out, src, 12, 9, filtering.GaussianKernel(3, 1.0)); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if math.Abs(v-42) > 1e-9 {
			t.Fatalf("blur sample %d = %v", i, v)
		}
	}
}

func BenchmarkMSE256(b *testing.B) {
	x := randImage(1, 256, 256, 3)
	y := randImage(2, 256, 256, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MSE(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSSIM256(b *testing.B) {
	x := randImage(1, 256, 256, 3)
	y := randImage(2, 256, 256, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SSIM(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
