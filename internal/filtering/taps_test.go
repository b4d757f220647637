package filtering

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"decamouflage/internal/parallel"
	"decamouflage/internal/testutil"
)

// tapsReference is the plain scalar loop convolveTaps must match bit for
// bit on every path: one accumulator per sample, starting from +0, taps in
// ascending k.
func tapsReference(out, src []float64, offs []int, kern []float64) {
	for x := range out {
		var s float64
		for k, c := range kern {
			s += c * src[offs[k]+x]
		}
		out[x] = s
	}
}

// tapPaths lists the values of haveTaps16 this CPU can run: the portable
// loop always, and the taps16 kernel where the CPU has it.
func tapPaths(t testing.TB) []bool {
	if !taps16Supported() {
		t.Log("no taps16 kernel on this CPU: only the portable loop runs")
		return []bool{false}
	}
	return []bool{false, true}
}

// withTaps16 runs fn with haveTaps16 set to on, restoring it afterwards.
func withTaps16(on bool, fn func()) {
	saved := haveTaps16
	haveTaps16 = on
	defer func() { haveTaps16 = saved }()
	fn()
}

// tapSamples fills a plane for the bit-equality test. "mixed" is uniform
// in ±255 with one sample in ten swapped for ±0, a subnormal or ±1e308 and
// about one in a hundred for ±Inf or NaN; "tiny" holds only ±0 and
// subnormals, so the sums themselves stay subnormal; "huge" holds ±1e308
// and ±1e307, so sums overflow to ±Inf and Inf−Inf makes NaN.
func tapSamples(kind string, rng *rand.Rand, n int) []float64 {
	finite := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2e-308, -1.5e-310, 1e308, -1e308}
	nonFinite := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	tiny := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 3e-320, -2.2e-308, 1.1e-308}
	huge := []float64{1e308, -1e308, 1e307, -1e307}
	pick := func(vs []float64) float64 { return vs[rng.Intn(len(vs))] }
	s := make([]float64, n)
	for i := range s {
		switch kind {
		case "tiny":
			s[i] = pick(tiny)
		case "huge":
			s[i] = pick(huge)
		default:
			switch p := rng.Intn(100); {
			case p == 0:
				s[i] = pick(nonFinite)
			case p < 11:
				s[i] = pick(finite)
			default:
				s[i] = (2*rng.Float64() - 1) * 255
			}
		}
	}
	return s
}

// TestConvolveTapsBitEqualScalar pins both paths of convolveTaps (the
// taps16 kernel where the CPU has it, and the portable loop) bit-equal to
// the scalar ascending-tap loop, through both ways Blur uses it: the row
// pass (convolveRow: clamped ends and a convolveTaps interior over the
// identity table) and the column pass (every output row, border rows
// included, over its clamped row offsets). Widths 1–70 hit every residue
// mod 16 and rows narrower than the window; kernel lengths 3, 9 (the CSP
// blur at σ = 1), 11 (SSIM) and 15; heights give interior and border rows
// and planes shorter than the window.
func TestConvolveTapsBitEqualScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, nk := range []int{3, 9, 11, 15} {
		r := nk / 2
		kern := GaussianKernel(r, float64(r)/2+0.3)
		ident := make([]int, nk)
		for i := range ident {
			ident[i] = i
		}
		for _, kind := range []string{"mixed", "tiny", "huge"} {
			for w := 1; w <= 70; w++ {
				for _, h := range []int{2, nk + 4} {
					plane := tapSamples(kind, rng, w*h)
					for _, asm := range tapPaths(t) {
						name := fmt.Sprintf("%d taps, %s %dx%d, taps16=%v", nk, kind, w, h, asm)
						withTaps16(asm, func() { checkTapPasses(t, name, plane, w, h, kern, ident) })
					}
				}
			}
		}
	}
}

func checkTapPasses(t *testing.T, name string, plane []float64, w, h int, kern []float64, ident []int) {
	t.Helper()
	r := len(kern) / 2
	got, want := make([]float64, w), make([]float64, w)
	for y := 0; y < h; y++ {
		row := plane[y*w : (y+1)*w]
		convolveRow(got, row, kern, ident, r)
		for x := range want {
			want[x] = convolveClampedAt(row, w, kern, r, x)
		}
		if x := testutil.FirstBitDiff(got, want); x >= 0 {
			t.Fatalf("%s: row pass y=%d x=%d = %v (%#x), scalar %v (%#x)",
				name, y, x, got[x], math.Float64bits(got[x]), want[x], math.Float64bits(want[x]))
		}
	}
	offs := make([]int, len(kern))
	for y := 0; y < h; y++ {
		for k := range offs {
			offs[k] = min(max(y-r+k, 0), h-1) * w
		}
		convolveTaps(got, plane, offs, kern)
		tapsReference(want, plane, offs, kern)
		if x := testutil.FirstBitDiff(got, want); x >= 0 {
			t.Fatalf("%s: column pass y=%d x=%d = %v (%#x), scalar %v (%#x)",
				name, y, x, got[x], math.Float64bits(got[x]), want[x], math.Float64bits(want[x]))
		}
	}
}

// BenchmarkBlurPlane512 blurs one 512×512 plane with the SSIM window (11
// taps, σ = 1.5) at one worker, once per path this CPU can run.
func BenchmarkBlurPlane512(b *testing.B) {
	const n = 512
	src := randImage(5, n, n, 1).Pix
	dst := make([]float64, len(src))
	kern := GaussianKernel(5, 1.5)
	for _, asm := range tapPaths(b) {
		name := "portable"
		if asm {
			name = "taps16"
		}
		b.Run(name, func(b *testing.B) {
			withTaps16(asm, func() {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := BlurPlane(context.Background(), dst, src, n, n, kern, parallel.Workers(1)); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
