package metrics

import (
	"context"
	"math"
	"testing"

	"decamouflage/internal/filtering"
	"decamouflage/internal/imgcore"
	"decamouflage/internal/parallel"
	"decamouflage/internal/testutil"
)

// ssimWithReference is the standalone SSIM body that SSIMWith ran before it
// became NewSSIMRef → Score: both images' moments computed in one function,
// with parallel options threaded through every Gaussian sweep and product
// map. It is the bit-equality reference for SSIMRef and the public entry
// points.
func ssimWithReference(ctx context.Context, a, b *imgcore.Image, opts SSIMOptions, popts ...parallel.Option) (float64, error) {
	if err := checkPair(a, b); err != nil {
		return 0, err
	}
	if err := opts.validate(); err != nil {
		return 0, err
	}
	w, h := a.W, a.H
	gaPix, gaP := grayPix(a)
	if gaP != nil {
		defer putScratch(gaP)
	}
	gbPix, gbP := grayPix(b)
	if gbP != nil {
		defer putScratch(gbP)
	}
	kern := filtering.GaussianKernel(opts.WindowRadius, opts.Sigma)
	n := w * h
	muA, muB := make([]float64, n), make([]float64, n)
	if err := filtering.BlurPlane(ctx, muA, gaPix, w, h, kern, popts...); err != nil {
		return 0, err
	}
	if err := filtering.BlurPlane(ctx, muB, gbPix, w, h, kern, popts...); err != nil {
		return 0, err
	}
	aa, bb, ab := make([]float64, n), make([]float64, n), make([]float64, n)
	prodOpts := append([]parallel.Option{parallel.Grain(minMapWork)}, popts...)
	if err := parallel.For(ctx, n, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			aa[i] = gaPix[i] * gaPix[i]
			bb[i] = gbPix[i] * gbPix[i]
			ab[i] = gaPix[i] * gbPix[i]
		}
		return nil
	}, prodOpts...); err != nil {
		return 0, err
	}
	sAA, sBB, sAB := make([]float64, n), make([]float64, n), make([]float64, n)
	if err := filtering.BlurPlane(ctx, sAA, aa, w, h, kern, popts...); err != nil {
		return 0, err
	}
	if err := filtering.BlurPlane(ctx, sBB, bb, w, h, kern, popts...); err != nil {
		return 0, err
	}
	if err := filtering.BlurPlane(ctx, sAB, ab, w, h, kern, popts...); err != nil {
		return 0, err
	}

	c1 := (opts.K1 * opts.L) * (opts.K1 * opts.L)
	c2 := (opts.K2 * opts.L) * (opts.K2 * opts.L)
	var sum float64
	for i := 0; i < n; i++ {
		ma, mb := muA[i], muB[i]
		varA := sAA[i] - ma*ma
		varB := sBB[i] - mb*mb
		cov := sAB[i] - ma*mb
		num := (2*ma*mb + c1) * (2*cov + c2)
		den := (ma*ma + mb*mb + c1) * (varA + varB + c2)
		sum += num / den
	}
	return sum / float64(n), nil
}

// ssimDirect is the naive SSIM reference: per-pixel local moments computed
// with an explicit 2-D Gaussian window (outer product of the 1-D kernel)
// and replicate-clamped taps. The production path computes the same
// moments with a separable blur, which reorders the summation — so the two
// agree to tolerance, not bit-exactly; TestSSIMMatchesDirectReference pins
// that tolerance.
func ssimDirect(a, b *imgcore.Image, opts SSIMOptions) (float64, error) {
	if err := checkPair(a, b); err != nil {
		return 0, err
	}
	if err := opts.validate(); err != nil {
		return 0, err
	}
	ga, gb := a.Gray(), b.Gray()
	w, h := ga.W, ga.H
	kern := filtering.GaussianKernel(opts.WindowRadius, opts.Sigma)
	r := opts.WindowRadius
	clampX := func(x int) int {
		if x < 0 {
			return 0
		}
		if x >= w {
			return w - 1
		}
		return x
	}
	clampY := func(y int) int {
		if y < 0 {
			return 0
		}
		if y >= h {
			return h - 1
		}
		return y
	}
	c1 := (opts.K1 * opts.L) * (opts.K1 * opts.L)
	c2 := (opts.K2 * opts.L) * (opts.K2 * opts.L)
	var sum float64
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var ma, mb, saa, sbb, sab float64
			for dy := -r; dy <= r; dy++ {
				for dx := -r; dx <= r; dx++ {
					wgt := kern[dy+r] * kern[dx+r]
					pa := ga.Pix[clampY(y+dy)*w+clampX(x+dx)]
					pb := gb.Pix[clampY(y+dy)*w+clampX(x+dx)]
					ma += wgt * pa
					mb += wgt * pb
					saa += wgt * pa * pa
					sbb += wgt * pb * pb
					sab += wgt * pa * pb
				}
			}
			varA := saa - ma*ma
			varB := sbb - mb*mb
			cov := sab - ma*mb
			num := (2*ma*mb + c1) * (2*cov + c2)
			den := (ma*ma + mb*mb + c1) * (varA + varB + c2)
			sum += num / den
		}
	}
	return sum / float64(w*h), nil
}

// TestSSIMMatchesDirectReference: the separable, pooled production SSIM
// must agree with the naive direct-window reference within the documented
// tolerance (the only difference is floating-point summation order).
func TestSSIMMatchesDirectReference(t *testing.T) {
	cases := []struct {
		w, h, c int
		opts    SSIMOptions
	}{
		{8, 8, 1, DefaultSSIM()},
		{17, 13, 1, DefaultSSIM()},
		{17, 13, 3, DefaultSSIM()},
		{9, 21, 3, SSIMOptions{WindowRadius: 2, Sigma: 0.8, K1: 0.01, K2: 0.03, L: 255}},
		{24, 11, 1, SSIMOptions{WindowRadius: 3, Sigma: 2.0, K1: 0.01, K2: 0.03, L: 255}},
	}
	for _, tc := range cases {
		a := randImage(101, tc.w, tc.h, tc.c)
		b := randImage(102, tc.w, tc.h, tc.c)
		want, err := ssimDirect(a, b, tc.opts)
		if err != nil {
			t.Fatalf("%dx%dx%d: reference: %v", tc.w, tc.h, tc.c, err)
		}
		got, err := SSIMWith(a, b, tc.opts)
		if err != nil {
			t.Fatalf("%dx%dx%d: %v", tc.w, tc.h, tc.c, err)
		}
		if !testutil.ApproxEqual(got, want, 1e-9, 1e-12) {
			t.Fatalf("%dx%dx%d r=%d: SSIM %v vs direct reference %v (diff %g)",
				tc.w, tc.h, tc.c, tc.opts.WindowRadius, got, want, math.Abs(got-want))
		}
	}
}

// TestSSIMPoolReuseDeterministic: repeated calls recycle pooled scratch;
// results must stay bit-identical and inputs untouched.
func TestSSIMPoolReuseDeterministic(t *testing.T) {
	a := randImage(103, 33, 27, 3)
	b := randImage(104, 33, 27, 3)
	aOrig := append([]float64(nil), a.Pix...)
	bOrig := append([]float64(nil), b.Pix...)
	first, err := SSIM(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 5; rep++ {
		// Interleave a different geometry so the pool hands back buffers of
		// mismatched history.
		if _, err := SSIM(randImage(105, 11, 7, 1), randImage(106, 11, 7, 1)); err != nil {
			t.Fatal(err)
		}
		again, err := SSIM(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !testutil.BitEqual(again, first) {
			t.Fatalf("rep %d: SSIM drifted across pool reuse: %v vs %v", rep, again, first)
		}
	}
	if i := testutil.FirstDiff(a.Pix, aOrig); i >= 0 {
		t.Fatalf("SSIM mutated input a at sample %d", i)
	}
	if i := testutil.FirstDiff(b.Pix, bOrig); i >= 0 {
		t.Fatalf("SSIM mutated input b at sample %d", i)
	}
}

// TestSSIMSingleChannelBorrowsInput: for single-channel inputs the
// luminance path borrows img.Pix directly; the scalar must match the
// multi-pass result on an equivalent cloned image and leave the input
// unmodified.
func TestSSIMSingleChannelBorrowsInput(t *testing.T) {
	a := randImage(107, 19, 23, 1)
	b := randImage(108, 19, 23, 1)
	aOrig := append([]float64(nil), a.Pix...)
	got, err := SSIM(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ssimDirect(a, b, DefaultSSIM())
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.ApproxEqual(got, want, 1e-9, 1e-12) {
		t.Fatalf("single-channel SSIM %v vs reference %v", got, want)
	}
	if i := testutil.FirstDiff(a.Pix, aOrig); i >= 0 {
		t.Fatalf("borrowed input mutated at sample %d", i)
	}
}
