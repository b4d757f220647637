package steg

import (
	"context"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"decamouflage/internal/attack"
	"decamouflage/internal/dataset"
	"decamouflage/internal/fourier"
	"decamouflage/internal/imgcore"
	"decamouflage/internal/scaling"
	"decamouflage/internal/testutil"
)

// gaussianBlur2DReference is the column-outer form of the CSP low-pass,
// with its own window builder: the vertical pass walks each column with a
// stride of w. It is the bit-equality reference for gaussianBlur2D.
func gaussianBlur2DReference(src []float64, w, h int, sigma float64) []float64 {
	r := int(sigma*3) + 1
	k := make([]float64, 2*r+1)
	var s float64
	for i := -r; i <= r; i++ {
		k[i+r] = math.Exp(-float64(i*i) / (2 * sigma * sigma))
		s += k[i+r]
	}
	for i := range k {
		k[i] /= s
	}
	tmp := make([]float64, len(src))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var v float64
			for d := -r; d <= r; d++ {
				xx := min(max(x+d, 0), w-1)
				v += k[d+r] * src[y*w+xx]
			}
			tmp[y*w+x] = v
		}
	}
	out := make([]float64, len(src))
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			var v float64
			for d := -r; d <= r; d++ {
				yy := min(max(y+d, 0), h-1)
				v += k[d+r] * tmp[yy*w+x]
			}
			out[y*w+x] = v
		}
	}
	return out
}

// referenceSpectrum is the complex composition of the centered spectrum:
// the full 2-D transform of the luminance, fftshift, log(1+|F|), then
// normalization by the maximum.
func referenceSpectrum(t *testing.T, img *imgcore.Image) []float64 {
	t.Helper()
	gray := img.Gray()
	w, h := gray.W, gray.H
	m, err := fourier.FromReal(gray.Pix, w, h)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := fourier.FFT2D(m)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, w*h)
	var mx float64
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := math.Log1p(cmplx.Abs(spec.At(x, y)))
			out[((y+h/2)%h)*w+(x+w/2)%w] = v
			mx = math.Max(mx, v)
		}
	}
	for i := range out {
		out[i] /= mx
	}
	return out
}

// TestGaussianBlurBitEqualReference pins the row-major blur, run twice to
// reuse its pooled intermediate, bit-equal to the column-outer reference
// across degenerate, odd and even geometries and several radii.
func TestGaussianBlurBitEqualReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, g := range []struct{ w, h int }{{1, 7}, {7, 1}, {3, 3}, {16, 9}, {33, 64}, {128, 128}} {
		for _, sigma := range []float64{0.4, 1, 2.5} {
			src := make([]float64, g.w*g.h)
			for i := range src {
				src[i] = rng.Float64()
			}
			want := gaussianBlur2DReference(src, g.w, g.h, sigma)
			for rep := 0; rep < 2; rep++ {
				got, err := gaussianBlur2D(context.Background(), src, g.w, g.h, sigma)
				if err != nil {
					t.Fatal(err)
				}
				if i := testutil.FirstDiff(got, want); i != -1 {
					t.Fatalf("%dx%d σ=%v rep %d: sample %d = %v, reference %v", g.w, g.h, sigma, rep, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCSPMatchesComplexReference requires the CSP count of every benign
// and attack corpus image to equal the count on the complex-composition
// spectrum: the real-input spectrum moves samples only by rounding.
func TestCSPMatchesComplexReference(t *testing.T) {
	imgs := append(benignCorpus(t, dataset.NeurIPSLike, 10), benignCorpus(t, dataset.CaltechLike, 10)...)
	imgs = append(imgs, attackCorpus(t, 6)...)
	for i, img := range imgs {
		got, err := CSP(img, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		ref, err := AnalyzeSpectrum(referenceSpectrum(t, img), img.W, img.H, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if got != ref.Count {
			t.Errorf("image %d: CSP = %d, complex reference gives %d", i, got, ref.Count)
		}
	}
}

// dftSpectrum is the centered spectrum of img's luminance from a
// separable O(n²) DFT — every row, then every column, each output a
// direct sum over a table of exp(-2πi·j/n) — with no FFT kernel involved.
func dftSpectrum(img *imgcore.Image) []float64 {
	gray := img.Gray()
	w, h := gray.W, gray.H
	data := make([]complex128, w*h)
	for i, v := range gray.Pix {
		data[i] = complex(v, 0)
	}
	dft := func(x []complex128) []complex128 {
		n := len(x)
		tw := make([]complex128, n)
		for j := range tw {
			tw[j] = cmplx.Rect(1, -2*math.Pi*float64(j)/float64(n))
		}
		out := make([]complex128, n)
		for k := range out {
			var s complex128
			for j, v := range x {
				s += v * tw[j*k%n]
			}
			out[k] = s
		}
		return out
	}
	for y := 0; y < h; y++ {
		copy(data[y*w:(y+1)*w], dft(data[y*w:(y+1)*w]))
	}
	col := make([]complex128, h)
	for x := 0; x < w; x++ {
		for y := range col {
			col[y] = data[y*w+x]
		}
		for y, v := range dft(col) {
			data[y*w+x] = v
		}
	}
	out := make([]float64, w*h)
	var mx float64
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := math.Log1p(cmplx.Abs(data[y*w+x]))
			out[((y+h/2)%h)*w+(x+w/2)%w] = v
			mx = math.Max(mx, v)
		}
	}
	for i := range out {
		out[i] /= mx
	}
	return out
}

// TestCSPMatchesDirectDFTOnMixedRadixSides requires Analyze's Count and
// Areas to equal those on the direct-DFT spectrum for one benign image
// (one CSP) and one 4× attack image (five) at two geometries whose sides
// run mixed-radix passes of radix 3, 4 and 5 and generic passes of prime
// radix 13, 19 and 79: 260×304 (4·5·13 and 16·19) and 228×316 (4·3·19
// and 4·79).
func TestCSPMatchesDirectDFTOnMixedRadixSides(t *testing.T) {
	for _, g := range []struct{ w, h int }{{260, 304}, {228, 316}} {
		src, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.NeurIPSLike, W: g.w, H: g.h, C: 3, Seed: 23})
		if err != nil {
			t.Fatal(err)
		}
		tgt, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.CaltechLike, W: g.w / 4, H: g.h / 4, C: 3, Seed: 24})
		if err != nil {
			t.Fatal(err)
		}
		scaler, err := scaling.NewScaler(g.w, g.h, g.w/4, g.h/4, scaling.Options{Algorithm: scaling.Bilinear})
		if err != nil {
			t.Fatal(err)
		}
		res, err := attack.Craft(src.Image(0), tgt.Image(0), attack.Config{Scaler: scaler, Eps: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			img  *imgcore.Image
		}{{"benign", src.Image(1)}, {"attack", res.Attack}} {
			got, err := Analyze(c.img, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			ref, err := AnalyzeSpectrum(dftSpectrum(c.img), g.w, g.h, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if got.Count != ref.Count || !slices.Equal(got.Areas, ref.Areas) {
				t.Errorf("%dx%d %s: Count %d Areas %v, direct DFT gives %d %v",
					g.w, g.h, c.name, got.Count, got.Areas, ref.Count, ref.Areas)
			}
		}
	}
}
