package detect

// Tests for the pipeline's 8-bit routing: the u8 stages (LUT gray,
// integer min filter) that every integral input takes, and the float64
// fallback for inputs without an 8-bit view.

import (
	"context"
	"math"
	"testing"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/testutil"
)

// TestPipelineNonIntegralInputFallsBack pins the float64 fallback: an
// image with fractional samples has no u8 view, and the pipeline must
// still match the reference bit-for-bit through the float stages.
func TestPipelineNonIntegralInputFallsBack(t *testing.T) {
	e := matrixEnsemble(t, 24, 18, 8, 6)
	img := corpusImage(t, 43, 0, 24, 18)
	for i := range img.Pix {
		img.Pix[i] = math.Min(255, img.Pix[i]+0.25)
	}
	ctx := context.Background()
	pipe, err := e.Detect(ctx, img)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := legacyDetect(ctx, e, img)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualVerdicts(t, pipe, legacy)
}

// TestGrayLUTBitEqual pins the LUT luminance against imgcore.GrayInto across the
// full 8-bit range (all 256 values appear in every channel position).
func TestGrayLUTBitEqual(t *testing.T) {
	const n = 256 * 3
	pix8 := make([]uint8, n*3)
	pix := make([]float64, n*3)
	for i := range pix8 {
		pix8[i] = uint8((i * 131) % 256)
		pix[i] = float64(pix8[i])
	}
	want := make([]float64, n)
	got := make([]float64, n)
	imgcore.GrayInto(want, pix)
	grayIntoU8(got, pix8)
	if i := testutil.FirstDiff(got, want); i != -1 {
		t.Fatalf("sample %d: LUT %v vs direct %v (ULP %d)",
			i, got[i], want[i], testutil.ULPDiff(got[i], want[i]))
	}
}

// TestQuantizedEnsembleDeterministic pins that an ensemble over quantized
// (8-bit integral) input, which routes gray and min-filter through the u8
// kernels, is deterministic: a repeat detect — running on recycled,
// un-zeroed pool buffers — agrees bit-for-bit with the first, and both
// match the reference.
func TestQuantizedEnsembleDeterministic(t *testing.T) {
	e := matrixEnsemble(t, 32, 24, 8, 6)
	img := corpusImage(t, 45, 0, 32, 24)
	if _, ok := img.ToU8(); !ok {
		t.Fatal("corpus image has no 8-bit view")
	}
	ctx := context.Background()
	a, err := e.Detect(ctx, img)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Detect(ctx, img)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualVerdicts(t, a, b)
	ref, err := legacyDetect(ctx, e, img)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualVerdicts(t, a, ref)
}
