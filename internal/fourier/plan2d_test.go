package fourier

import (
	"context"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"decamouflage/internal/parallel"
	"decamouflage/internal/testutil"
)

func randComplex(rng *rand.Rand, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return out
}

// TestBlockedColumnsBitEqualReference pins the cache-blocked column pass
// against the retained one-column-at-a-time reference: identical
// arithmetic in a different memory walk must produce bit-identical
// spectra. Geometries cover tile-boundary cases — widths below, at and
// off multiples of colBlock — plus mixed-radix and Bluestein heights.
func TestBlockedColumnsBitEqualReference(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	geoms := []struct{ w, h int }{
		{1, 8},   // single column
		{3, 16},  // narrower than one tile
		{8, 8},   // exactly one tile
		{9, 8},   // one tile plus one column
		{16, 32}, // whole tiles
		{23, 17}, // generic-radix passes on both axes, ragged tiles
		{9, 127}, // Bluestein columns
		{64, 48},
	}
	for _, g := range geoms {
		data := randComplex(rng, g.w*g.h)
		rowPlan, err := PlanFor(g.w, false)
		if err != nil {
			t.Fatal(err)
		}
		colPlan, err := PlanFor(g.h, false)
		if err != nil {
			t.Fatal(err)
		}
		// Reference: shared row pass, then the per-column pass.
		want := append([]complex128(nil), data...)
		for y := 0; y < g.h; y++ {
			if err := rowPlan.Transform(want[y*g.w : (y+1)*g.w]); err != nil {
				t.Fatal(err)
			}
		}
		if err := transformColumnsReference(context.Background(), want, g.w, g.h, colPlan); err != nil {
			t.Fatal(err)
		}
		got := append([]complex128(nil), data...)
		if err := transformPasses(context.Background(), got, g.w, g.h, rowPlan, colPlan); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%dx%d: element %d: blocked %v vs reference %v", g.w, g.h, i, got[i], want[i])
			}
		}
	}
}

// TestCenteredSpectrumIntoBitEqualUnplanned pins the fused pooled path
// against the composed CenteredSpectrum across geometries and repeated
// pooled executions (the DetectBatch shape: one plan, many images).
func TestCenteredSpectrumIntoBitEqualUnplanned(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	for _, g := range []struct{ w, h int }{{8, 8}, {17, 9}, {32, 32}, {23, 41}} {
		p, err := Plan2DFor(g.w, g.h)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]float64, g.w*g.h)
		for rep := 0; rep < 3; rep++ {
			data := make([]float64, g.w*g.h)
			for i := range data {
				data[i] = rng.Float64() * 255
			}
			want, err := CenteredSpectrum(data, g.w, g.h)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.CenteredSpectrumInto(context.Background(), data, dst); err != nil {
				t.Fatal(err)
			}
			if i := testutil.FirstDiff(dst, want); i != -1 {
				t.Fatalf("%dx%d rep %d: sample %d: fused %v vs composed %v",
					g.w, g.h, rep, i, dst[i], want[i])
			}
		}
	}
}

// TestCenteredSpectrumIntoValidation pins the length checks of the fused
// entry point and the geometry check of CenteredSpectrumWith.
func TestCenteredSpectrumIntoValidation(t *testing.T) {
	p, err := Plan2DFor(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	good := make([]float64, 64)
	if err := p.CenteredSpectrumInto(context.Background(), make([]float64, 63), good); err == nil {
		t.Error("short data accepted")
	}
	if err := p.CenteredSpectrumInto(context.Background(), good, make([]float64, 65)); err == nil {
		t.Error("long dst accepted")
	}
	// Same element count, wrong geometry: the explicit plan check in
	// CenteredSpectrumWith must reject it.
	if _, err := CenteredSpectrumWith(context.Background(), p, make([]float64, 64), 4, 16); err == nil {
		t.Error("geometry-mismatched plan accepted")
	}
	if _, err := CenteredSpectrumWith(context.Background(), nil, good, 8, 9); err == nil {
		t.Error("mismatched data length accepted")
	}
	// Nil plan resolves from the cache and must match the composed path.
	got, err := CenteredSpectrumWith(context.Background(), nil, good, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := CenteredSpectrum(good, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if i := testutil.FirstDiff(got, want); i != -1 {
		t.Fatalf("nil-plan sample %d differs", i)
	}
}

// benchmarkColumns2D times a full planned 2-D transform at 256×256 with
// the given column pass, single worker.
func benchmarkColumns2D(b *testing.B, blocked bool) {
	rng := rand.New(rand.NewSource(93))
	data := randComplex(rng, 256*256)
	rowPlan, err := PlanFor(256, false)
	if err != nil {
		b.Fatal(err)
	}
	colPlan, err := PlanFor(256, false)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]complex128, len(data))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, data)
		if blocked {
			if err := transformPasses(context.Background(), buf, 256, 256, rowPlan, colPlan, parallel.Workers(1)); err != nil {
				b.Fatal(err)
			}
			continue
		}
		for y := 0; y < 256; y++ {
			if err := rowPlan.Transform(buf[y*256 : (y+1)*256]); err != nil {
				b.Fatal(err)
			}
		}
		if err := transformColumnsReference(context.Background(), buf, 256, 256, colPlan, parallel.Workers(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFFT2DBlocked256 is the cache-blocked column pass; its baseline
// is BenchmarkFFT2DPerColumn256.
func BenchmarkFFT2DBlocked256(b *testing.B) { benchmarkColumns2D(b, true) }

// BenchmarkFFT2DPerColumn256 is the one-column-at-a-time reference pass.
func BenchmarkFFT2DPerColumn256(b *testing.B) { benchmarkColumns2D(b, false) }

// benchmarkCenteredSpectrumInto times the production spectrum — one
// plan, pooled scratch, real-input passes, fused tail — at w×h.
func benchmarkCenteredSpectrumInto(b *testing.B, w, h int) {
	data := spectrumInput(rand.New(rand.NewSource(94)), w, h)
	p, err := Plan2DFor(w, h)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, len(data))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.CenteredSpectrumInto(context.Background(), data, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCenteredSpectrumInto256 is the production spectrum on the
// radix-2 path; its baseline is BenchmarkCenteredSpectrumComplex256.
func BenchmarkCenteredSpectrumInto256(b *testing.B) { benchmarkCenteredSpectrumInto(b, 256, 256) }

// BenchmarkCenteredSpectrumInto260x304 is the production spectrum on a
// Bluestein geometry from the csp-jpeg-mixed workload.
func BenchmarkCenteredSpectrumInto260x304(b *testing.B) { benchmarkCenteredSpectrumInto(b, 260, 304) }

// BenchmarkCenteredSpectrum256 is the allocating entry point onto the
// same implementation.
func BenchmarkCenteredSpectrum256(b *testing.B) {
	data := spectrumInput(rand.New(rand.NewSource(94)), 256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CenteredSpectrum(data, 256, 256); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCenteredSpectrumComplex256 is the complex composition in
// reference_test.go: full 2-D transform, Shift, LogMagnitude, normalize.
func BenchmarkCenteredSpectrumComplex256(b *testing.B) {
	data := spectrumInput(rand.New(rand.NewSource(94)), 256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := centeredSpectrumComplex(data, 256, 256); err != nil {
			b.Fatal(err)
		}
	}
}

// spectrumInput is reproducible 8-bit-range noise for a w×h signal.
func spectrumInput(rng *rand.Rand, w, h int) []float64 {
	data := make([]float64, w*h)
	for i := range data {
		data[i] = rng.Float64() * 255
	}
	return data
}

// TestCenteredSpectrumRealMatchesComplex checks the real-input spectrum
// (row pairs, half columns, mirrored tail) against the complex
// composition in reference_test.go. The two differ only by rounding, so
// the bound is absolute on the normalized [0, 1] scale. Geometries cover
// degenerate rows and columns, odd and even sides, Bluestein lengths and
// the csp-jpeg-mixed shapes.
func TestCenteredSpectrumRealMatchesComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	geoms := []struct{ w, h int }{
		{1, 5}, {5, 1}, {2, 3}, {8, 8}, {17, 9}, {9, 17}, {23, 41},
		{128, 128}, {260, 304}, {316, 228}, {512, 512},
	}
	for _, g := range geoms {
		data := spectrumInput(rng, g.w, g.h)
		want, err := centeredSpectrumComplex(data, g.w, g.h)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CenteredSpectrum(data, g.w, g.h)
		if err != nil {
			t.Fatal(err)
		}
		var worst float64
		for i := range want {
			worst = math.Max(worst, math.Abs(got[i]-want[i]))
		}
		if worst > 1e-12 {
			t.Errorf("%dx%d: max |real − complex| = %.3g, want <= 1e-12", g.w, g.h, worst)
		}
	}
}

// poisonSpecScratch fills a pooled spectrum buffer with NaN across its
// whole capacity and returns it to the pool, so a later call that read a
// stale column would produce NaN.
func poisonSpecScratch(n int) {
	bp := specScratch.Get().(*[]complex128)
	if cap(*bp) < n {
		*bp = make([]complex128, n)
	}
	buf := (*bp)[:cap(*bp)]
	for i := range buf {
		buf[i] = cmplx.NaN()
	}
	specScratch.Put(bp)
}

// TestCenteredSpectrumPooledReuse alternates geometries — odd and even
// heights and widths — over the one pooled buffer, poisoned between
// calls: a repeat call must be bit-equal to the first, so no call reads
// the columns above w/2 that earlier, larger geometries left behind.
func TestCenteredSpectrumPooledReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	geoms := []struct{ w, h int }{{32, 31}, {16, 9}, {16, 8}, {9, 16}, {7, 7}, {1, 6}, {6, 1}}
	inputs := make([][]float64, len(geoms))
	firsts := make([][]float64, len(geoms))
	for rep := 0; rep < 3; rep++ {
		for i, g := range geoms {
			if rep == 0 {
				inputs[i] = spectrumInput(rng, g.w, g.h)
			}
			p, err := Plan2DFor(g.w, g.h)
			if err != nil {
				t.Fatal(err)
			}
			poisonSpecScratch(64 * 64)
			dst := make([]float64, g.w*g.h)
			if err := p.CenteredSpectrumInto(context.Background(), inputs[i], dst); err != nil {
				t.Fatal(err)
			}
			if rep == 0 {
				firsts[i] = dst
				continue
			}
			if j := testutil.FirstDiff(dst, firsts[i]); j != -1 {
				t.Fatalf("%dx%d rep %d: sample %d = %v, first call gave %v", g.w, g.h, rep, j, dst[j], firsts[i][j])
			}
		}
	}
}

// TestCenteredSpectrumWorkerCountsBitEqual pins the real-input row and
// column passes bit-identical between one worker, the default and
// finely chunked concurrent runs.
func TestCenteredSpectrumWorkerCountsBitEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for _, g := range []struct{ w, h int }{{64, 64}, {65, 33}, {260, 304}, {240, 320}, {228, 316}, {31, 128}, {128, 1}} {
		data := spectrumInput(rng, g.w, g.h)
		p, err := Plan2DFor(g.w, g.h)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, len(data))
		if err := p.CenteredSpectrumInto(context.Background(), data, want, parallel.Workers(1)); err != nil {
			t.Fatal(err)
		}
		runs := map[string][]parallel.Option{
			"default":           nil,
			"workers=3 grain=1": {parallel.Workers(3), parallel.Grain(1)},
		}
		for name, opts := range runs {
			got := make([]float64, len(data))
			if err := p.CenteredSpectrumInto(context.Background(), data, got, opts...); err != nil {
				t.Fatal(err)
			}
			if i := testutil.FirstDiff(got, want); i != -1 {
				t.Fatalf("%dx%d %s: sample %d = %v, Workers(1) gave %v", g.w, g.h, name, i, got[i], want[i])
			}
		}
	}
}
