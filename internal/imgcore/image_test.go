package imgcore

import (
	"bytes"
	"image"
	"image/color"
	"math"
	"path/filepath"
	"testing"
	"testing/quick"

	"decamouflage/internal/testutil"
)

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		w, h, c int
		wantErr bool
	}{
		{"gray ok", 4, 3, 1, false},
		{"rgb ok", 7, 9, 3, false},
		{"zero width", 0, 3, 1, true},
		{"zero height", 3, 0, 1, true},
		{"negative width", -1, 3, 1, true},
		{"two channels", 4, 4, 2, true},
		{"four channels", 4, 4, 4, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			img, err := New(tt.w, tt.h, tt.c)
			if (err != nil) != tt.wantErr {
				t.Fatalf("New(%d,%d,%d) error = %v, wantErr %v", tt.w, tt.h, tt.c, err, tt.wantErr)
			}
			if err == nil {
				if got := len(img.Pix); got != tt.w*tt.h*tt.c {
					t.Errorf("len(Pix) = %d, want %d", got, tt.w*tt.h*tt.c)
				}
				if err := img.Validate(); err != nil {
					t.Errorf("Validate() = %v, want nil", err)
				}
			}
		})
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	img := MustNew(4, 4, 3)
	img.Pix = img.Pix[:5]
	if err := img.Validate(); err == nil {
		t.Fatal("Validate() = nil for corrupted buffer, want error")
	}
	var nilImg *Image
	if err := nilImg.Validate(); err == nil {
		t.Fatal("Validate() on nil image = nil, want error")
	}
	empty := &Image{}
	if err := empty.Validate(); err == nil {
		t.Fatal("Validate() on zero image = nil, want error")
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	img := MustNew(5, 4, 3)
	img.Set(2, 3, 1, 42.5)
	if got := img.At(2, 3, 1); !testutil.BitEqual(got, 42.5) {
		t.Errorf("At(2,3,1) = %v, want 42.5", got)
	}
	if got := img.At(2, 3, 0); !testutil.BitEqual(got, 0) {
		t.Errorf("At(2,3,0) = %v, want 0", got)
	}
}

func TestAtClampedReplicatesBorder(t *testing.T) {
	img := MustNew(3, 3, 1)
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			img.Set(x, y, 0, float64(y*3+x))
		}
	}
	tests := []struct {
		x, y int
		want float64
	}{
		{-1, -1, 0}, {5, -2, 2}, {-3, 5, 6}, {9, 9, 8}, {1, 1, 4},
	}
	for _, tt := range tests {
		if got := img.AtClamped(tt.x, tt.y, 0); !testutil.BitEqual(got, tt.want) {
			t.Errorf("AtClamped(%d,%d) = %v, want %v", tt.x, tt.y, got, tt.want)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	img := MustNew(2, 2, 1)
	img.Set(0, 0, 0, 7)
	cp := img.Clone()
	cp.Set(0, 0, 0, 9)
	if !testutil.BitEqual(img.At(0, 0, 0), 7) {
		t.Error("Clone shares backing storage with original")
	}
}

func TestClampAndQuantize(t *testing.T) {
	img := MustNew(3, 1, 1)
	img.Pix[0] = -3.7
	img.Pix[1] = 260.2
	img.Pix[2] = 12.6
	img.Quantize8()
	if !testutil.BitEqual(img.Pix[0], 0) || !testutil.BitEqual(img.Pix[1], 255) || !testutil.BitEqual(img.Pix[2], 13) {
		t.Errorf("Quantize8 = %v, want [0 255 13]", img.Pix)
	}
}

func TestGrayWeights(t *testing.T) {
	img := MustNew(1, 1, 3)
	img.Set(0, 0, 0, 255) // pure red
	g := img.Gray()
	if g.C != 1 {
		t.Fatalf("Gray().C = %d, want 1", g.C)
	}
	want := 0.299 * 255
	if math.Abs(g.At(0, 0, 0)-want) > 1e-9 {
		t.Errorf("gray(red) = %v, want %v", g.At(0, 0, 0), want)
	}
	// Grayscale input is cloned, not aliased.
	g2 := g.Gray()
	g2.Set(0, 0, 0, 0)
	if testutil.BitEqual(g.At(0, 0, 0), 0) {
		t.Error("Gray() of gray image aliases its input")
	}
}

func TestChannelExtract(t *testing.T) {
	img := MustNew(2, 2, 3)
	for i := 0; i < 4; i++ {
		img.Pix[i*3+2] = float64(i + 1)
	}
	ch, err := img.Channel(2)
	if err != nil {
		t.Fatalf("Channel(2) error: %v", err)
	}
	for i := 0; i < 4; i++ {
		if !testutil.BitEqual(ch.Pix[i], float64(i+1)) {
			t.Fatalf("channel sample %d = %v, want %v", i, ch.Pix[i], i+1)
		}
	}
	if _, err := img.Channel(3); err == nil {
		t.Error("Channel(3) = nil error, want out of range")
	}
}

func TestArithmetic(t *testing.T) {
	a := MustNew(2, 1, 1)
	b := MustNew(2, 1, 1)
	a.Pix[0], a.Pix[1] = 10, 20
	b.Pix[0], b.Pix[1] = 1, 2
	sum, err := a.Add(b)
	if err != nil {
		t.Fatalf("Add error: %v", err)
	}
	if !testutil.BitEqual(sum.Pix[0], 11) || !testutil.BitEqual(sum.Pix[1], 22) {
		t.Errorf("Add = %v", sum.Pix)
	}
	diff, err := a.Sub(b)
	if err != nil {
		t.Fatalf("Sub error: %v", err)
	}
	if !testutil.BitEqual(diff.Pix[0], 9) || !testutil.BitEqual(diff.Pix[1], 18) {
		t.Errorf("Sub = %v", diff.Pix)
	}
	c := MustNew(3, 1, 1)
	if _, err := a.Add(c); err == nil {
		t.Error("Add with shape mismatch = nil error")
	}
	if _, err := a.Sub(c); err == nil {
		t.Error("Sub with shape mismatch = nil error")
	}
}

func TestStatsHelpers(t *testing.T) {
	img := MustNew(2, 2, 1)
	copy(img.Pix, []float64{-1, 5, 3, 1})
	if got := img.Mean(); !testutil.BitEqual(got, 2) {
		t.Errorf("Mean = %v, want 2", got)
	}
	lo, hi := img.MinMax()
	if !testutil.BitEqual(lo, -1) || !testutil.BitEqual(hi, 5) {
		t.Errorf("MinMax = %v,%v, want -1,5", lo, hi)
	}
	if img.HasNaN() {
		t.Error("HasNaN = true for finite image")
	}
	img.Pix[2] = math.NaN()
	if !img.HasNaN() {
		t.Error("HasNaN = false with NaN present")
	}
	img.Pix[2] = math.Inf(1)
	if !img.HasNaN() {
		t.Error("HasNaN = false with +Inf present")
	}
}

func TestFromImageToNRGBARoundTrip(t *testing.T) {
	src := image.NewNRGBA(image.Rect(0, 0, 3, 2))
	for y := 0; y < 2; y++ {
		for x := 0; x < 3; x++ {
			src.SetNRGBA(x, y, color.NRGBA{R: uint8(x * 40), G: uint8(y * 90), B: 200, A: 255})
		}
	}
	img := FromImage(src)
	if img.W != 3 || img.H != 2 || img.C != 3 {
		t.Fatalf("FromImage geometry = %v", img)
	}
	back := img.ToNRGBA()
	for y := 0; y < 2; y++ {
		for x := 0; x < 3; x++ {
			if got, want := back.NRGBAAt(x, y), src.NRGBAAt(x, y); got != want {
				t.Fatalf("round trip pixel (%d,%d) = %v, want %v", x, y, got, want)
			}
		}
	}
}

func TestPNGSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	img := MustNew(8, 6, 3)
	for i := range img.Pix {
		img.Pix[i] = float64((i * 37) % 256)
	}
	path := filepath.Join(dir, "sub", "t.png")
	if err := img.SavePNG(path); err != nil {
		t.Fatalf("SavePNG: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !got.SameShape(img) {
		t.Fatalf("shape after round trip = %v, want %v", got, img)
	}
	for i := range img.Pix {
		if !testutil.BitEqual(got.Pix[i], img.Pix[i]) {
			t.Fatalf("pixel %d = %v, want %v", i, got.Pix[i], img.Pix[i])
		}
	}
}

func TestJPEGRoundTrip(t *testing.T) {
	img := MustNew(24, 24, 3)
	for i := range img.Pix {
		img.Pix[i] = float64((i * 11) % 256)
	}
	out, err := JPEGRoundTrip(img, 90)
	if err != nil {
		t.Fatal(err)
	}
	if !out.SameShape(img) {
		t.Fatalf("shape changed: %v", out)
	}
	// Lossy but bounded drift at q=90 on smooth-ish content.
	mseSum := 0.0
	for i := range img.Pix {
		d := out.Pix[i] - img.Pix[i]
		mseSum += d * d
	}
	if mseSum/float64(len(img.Pix)) > 2000 {
		t.Errorf("q=90 round trip MSE %v too large", mseSum/float64(len(img.Pix)))
	}
	// Lower quality drifts more.
	low, err := JPEGRoundTrip(img, 10)
	if err != nil {
		t.Fatal(err)
	}
	lowSum := 0.0
	for i := range img.Pix {
		d := low.Pix[i] - img.Pix[i]
		lowSum += d * d
	}
	if lowSum <= mseSum {
		t.Errorf("q=10 drift (%v) not larger than q=90 (%v)", lowSum, mseSum)
	}
	if _, err := JPEGRoundTrip(img, 0); err == nil {
		t.Error("quality 0 accepted")
	}
	if _, err := JPEGRoundTrip(img, 101); err == nil {
		t.Error("quality 101 accepted")
	}
	if _, err := JPEGRoundTrip(&Image{}, 90); err == nil {
		t.Error("empty image accepted")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("not an image"))); err == nil {
		t.Fatal("Decode(garbage) = nil error")
	}
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"b.png", "a.png", "c.txt"} {
		if name == "c.txt" {
			continue
		}
		img := MustNew(4, 4, 3)
		if err := img.SavePNG(filepath.Join(dir, name)); err != nil {
			t.Fatalf("SavePNG: %v", err)
		}
	}
	imgs, err := LoadDir(dir, 0)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if len(imgs) != 2 {
		t.Fatalf("LoadDir loaded %d images, want 2", len(imgs))
	}
	imgs, err = LoadDir(dir, 1)
	if err != nil {
		t.Fatalf("LoadDir limited: %v", err)
	}
	if len(imgs) != 1 {
		t.Fatalf("LoadDir with limit 1 loaded %d", len(imgs))
	}
	if _, err := LoadDir(filepath.Join(dir, "missing"), 0); err == nil {
		t.Error("LoadDir(missing) = nil error")
	}
}

// Property: Add then Sub is the identity.
func TestAddSubInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := randomImage(seed, 6, 5, 3)
		b := randomImage(seed+1, 6, 5, 3)
		sum, err := a.Add(b)
		if err != nil {
			return false
		}
		back, err := sum.Sub(b)
		if err != nil {
			return false
		}
		for i := range a.Pix {
			if math.Abs(back.Pix[i]-a.Pix[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Quantize8, the one clamp left on Image, yields integral
// samples within [0,255] and is idempotent.
func TestClampIdempotentProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := randomImage(seed, 4, 4, 1)
		for i := range a.Pix {
			a.Pix[i] = a.Pix[i]*10 - 1000
		}
		a.Quantize8()
		snapshot := append([]float64(nil), a.Pix...)
		a.Quantize8()
		for i, v := range a.Pix {
			if v < 0 || v > 255 || !testutil.BitEqual(v, math.Round(v)) || !testutil.BitEqual(v, snapshot[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// randomImage builds a deterministic pseudo-random image for property tests.
func randomImage(seed int64, w, h, c int) *Image {
	img := MustNew(w, h, c)
	s := uint64(seed)*2654435761 + 1
	for i := range img.Pix {
		s = s*6364136223846793005 + 1442695040888963407
		img.Pix[i] = float64(s>>40) / float64(1<<24) * 255
	}
	return img
}
