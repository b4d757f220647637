package steg

import (
	"math"
	"testing"

	"decamouflage/internal/attack"
	"decamouflage/internal/dataset"
	"decamouflage/internal/imgcore"
	"decamouflage/internal/scaling"
	"decamouflage/internal/testutil"
)

func TestOptionsValidation(t *testing.T) {
	img := imgcore.MustNew(8, 8, 1)
	img.Fill(100)
	for _, tc := range []struct {
		name string
		img  *imgcore.Image
		opts Options
		ok   bool
	}{
		{"threshold > 1", img, Options{BinarizeThreshold: 1.5}, false},
		{"negative threshold", img, Options{BinarizeThreshold: -0.1}, false},
		{"NaN threshold", img, Options{BinarizeThreshold: math.NaN()}, false},
		{"negative min area", img, Options{BinarizeThreshold: 0.5, MinArea: -2}, false},
		{"empty image", &imgcore.Image{}, Options{}, false},
		{"NaN sigma", img, Options{SmoothSigma: math.NaN()}, false},
		{"+Inf sigma", img, Options{SmoothSigma: math.Inf(1)}, false},
		{"-Inf sigma", img, Options{SmoothSigma: math.Inf(-1)}, false},
		{"sigma 1e18", img, Options{SmoothSigma: 1e18}, false},
		{"radius 9 on 8x8", img, Options{SmoothSigma: 2.7}, false},
		{"radius 8 on 8x8", img, Options{SmoothSigma: 2.5}, true},
		{"smoothing disabled", img, Options{SmoothSigma: -1}, true},
	} {
		_, err := CSP(tc.img, tc.opts)
		if tc.ok && err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	img := imgcore.MustNew(16, 16, 1)
	img.Fill(128)
	a, err := Analyze(img, Options{MinArea: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.Count != 1 {
		t.Errorf("constant image CSP = %d, want 1 (single DC point)", a.Count)
	}
	if len(a.Spectrum) != 256 || len(a.Mask) != 256 {
		t.Errorf("artifact sizes wrong: %d %d", len(a.Spectrum), len(a.Mask))
	}
	// Default MinArea auto-scales with image area.
	auto := Options{}.withDefaults(128, 128)
	if auto.MinArea != 128*128/1600 {
		t.Errorf("auto MinArea = %d", auto.MinArea)
	}
	small := Options{}.withDefaults(16, 16)
	if small.MinArea != 4 {
		t.Errorf("small-image MinArea = %d, want 4", small.MinArea)
	}
	if !testutil.BitEqual(auto.BinarizeThreshold, 0.78) || !testutil.BitEqual(auto.SmoothSigma, 1.0) {
		t.Errorf("defaults = %+v", auto)
	}
}

func TestLabelComponents(t *testing.T) {
	// Two diagonal-touching pixels are ONE component under 8-connectivity.
	mask := []bool{
		true, false, false,
		false, true, false,
		false, false, false,
	}
	labels, areas := LabelComponents(mask, 3, 3)
	if len(areas) != 1 || areas[0] != 2 {
		t.Errorf("8-connectivity areas = %v, want [2]", areas)
	}
	if labels[0] != labels[4] {
		t.Error("diagonal pixels got different labels")
	}
	// Two separated blobs.
	mask = []bool{
		true, true, false, false,
		false, false, false, false,
		false, false, true, false,
		false, false, true, true,
	}
	_, areas = LabelComponents(mask, 4, 4)
	if len(areas) != 2 {
		t.Fatalf("component count = %d, want 2", len(areas))
	}
	if areas[0]+areas[1] != 5 {
		t.Errorf("total area = %d, want 5", areas[0]+areas[1])
	}
}

func TestLabelComponentsEdgeCases(t *testing.T) {
	if l, a := LabelComponents(nil, 0, 0); l != nil || a != nil {
		t.Error("empty mask should return nils")
	}
	if l, a := LabelComponents([]bool{true}, 2, 2); l != nil || a != nil {
		t.Error("mismatched mask length accepted")
	}
	// All background.
	_, areas := LabelComponents(make([]bool, 9), 3, 3)
	if len(areas) != 0 {
		t.Errorf("all-background areas = %v", areas)
	}
	// All foreground: one component covering everything.
	mask := make([]bool, 9)
	for i := range mask {
		mask[i] = true
	}
	_, areas = LabelComponents(mask, 3, 3)
	if len(areas) != 1 || areas[0] != 9 {
		t.Errorf("full mask areas = %v, want [9]", areas)
	}
}

func TestMinAreaFiltersSpeckles(t *testing.T) {
	// Construct an analysis by hand through the options: use an image whose
	// spectrum yields speckles and verify MinArea reduces the count
	// monotonically.
	g, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.CaltechLike, W: 64, H: 64, C: 1, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	img := g.Image(0)
	loose, err := CSP(img, Options{BinarizeThreshold: 0.45, MinArea: 1})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := CSP(img, Options{BinarizeThreshold: 0.45, MinArea: 8})
	if err != nil {
		t.Fatal(err)
	}
	if strict > loose {
		t.Errorf("MinArea increased count: %d > %d", strict, loose)
	}
}

// benignCorpus returns the n benign 128² test images of one corpus.
func benignCorpus(t *testing.T, corpus dataset.Corpus, n int) []*imgcore.Image {
	t.Helper()
	g, err := dataset.NewGenerator(dataset.Config{Corpus: corpus, W: 128, H: 128, C: 3, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	imgs := make([]*imgcore.Image, n)
	for i := range imgs {
		imgs[i] = g.Image(i)
	}
	return imgs
}

// attackCorpus returns n bilinear 128→32 attack images (ε = 2).
func attackCorpus(t *testing.T, n int) []*imgcore.Image {
	t.Helper()
	src, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.CaltechLike, W: 128, H: 128, C: 3, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.CaltechLike, W: 32, H: 32, C: 3, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	scaler, err := scaling.NewScaler(128, 128, 32, 32, scaling.Options{Algorithm: scaling.Bilinear})
	if err != nil {
		t.Fatal(err)
	}
	imgs := make([]*imgcore.Image, n)
	for i := range imgs {
		res, err := attack.Craft(src.Image(i), tgt.Image(i), attack.Config{Scaler: scaler, Eps: 2})
		if err != nil {
			t.Fatal(err)
		}
		imgs[i] = res.Attack
	}
	return imgs
}

func TestBenignImagesHaveOneCSP(t *testing.T) {
	for _, corpus := range []dataset.Corpus{dataset.NeurIPSLike, dataset.CaltechLike} {
		ones := 0
		const n = 10
		for _, img := range benignCorpus(t, corpus, n) {
			count, err := CSP(img, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if count == 1 {
				ones++
			}
		}
		// The paper reports 99.3% of benign images have exactly 1 CSP.
		if ones < n-1 {
			t.Errorf("%v: only %d/%d benign images have CSP=1", corpus, ones, n)
		}
	}
}

func TestAttackImagesHaveMultipleCSP(t *testing.T) {
	multi := 0
	const n = 6
	for _, img := range attackCorpus(t, n) {
		count, err := CSP(img, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if count >= 2 {
			multi++
		}
	}
	// The paper reports 98.2% of attack images have CSP > 1.
	if multi < n-1 {
		t.Errorf("only %d/%d attack images have CSP >= 2", multi, n)
	}
}

func TestArtifactImages(t *testing.T) {
	img := imgcore.MustNew(32, 32, 1)
	for i := range img.Pix {
		img.Pix[i] = float64(i % 255)
	}
	a, err := Analyze(img, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := a.SpectrumImage()
	if spec.W != 32 || spec.H != 32 || spec.C != 1 {
		t.Errorf("spectrum image geometry %v", spec)
	}
	lo, hi := spec.MinMax()
	if lo < 0 || hi > 255 {
		t.Errorf("spectrum image out of range [%v,%v]", lo, hi)
	}
	mask := a.MaskImage()
	for _, v := range mask.Pix {
		if !testutil.BitEqual(v, 0) && !testutil.BitEqual(v, 255) {
			t.Fatalf("mask image sample %v not binary", v)
		}
	}
}

func TestAreasSortedDescending(t *testing.T) {
	g, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.CaltechLike, W: 64, H: 64, C: 1, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(g.Image(3), Options{BinarizeThreshold: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(a.Areas); i++ {
		if a.Areas[i] > a.Areas[i-1] {
			t.Fatalf("areas not sorted: %v", a.Areas)
		}
	}
}

func BenchmarkCSP128(b *testing.B) {
	g, err := dataset.NewGenerator(dataset.Config{Corpus: dataset.CaltechLike, W: 128, H: 128, C: 3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	img := g.Image(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CSP(img, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
