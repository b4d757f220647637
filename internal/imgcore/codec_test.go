package imgcore

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"image"
	"image/color"
	"image/jpeg"
	"image/png"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// fromImageReference is FromImage as it was before the typed cases: one
// boxed colour per pixel through At(x, y).RGBA(). Every typed case must
// reproduce it bit for bit.
func fromImageReference(src image.Image) *Image {
	b := src.Bounds()
	w, h := b.Dx(), b.Dy()
	out := &Image{W: w, H: h, C: 3, Pix: make([]float64, w*h*3)}
	i := 0
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			r, g, bb, _ := src.At(x, y).RGBA()
			out.Pix[i] = float64(r >> 8)
			out.Pix[i+1] = float64(g >> 8)
			out.Pix[i+2] = float64(bb >> 8)
			i += 3
		}
	}
	return out
}

func requireBitEqualReference(t *testing.T, src image.Image) {
	t.Helper()
	got, want := FromImage(src), fromImageReference(src)
	if got.W != want.W || got.H != want.H || got.C != want.C || len(got.Pix) != len(want.Pix) {
		t.Fatalf("geometry %v, want %v", got, want)
	}
	for i := range want.Pix {
		if math.Float64bits(got.Pix[i]) != math.Float64bits(want.Pix[i]) {
			t.Fatalf("sample %d (pixel %d, channel %d) = %v, want %v",
				i, i/3, i%3, got.Pix[i], want.Pix[i])
		}
	}
}

func fillRandom(rng *rand.Rand, p []uint8) {
	for i := range p {
		p[i] = uint8(rng.Intn(256))
	}
}

var ycbcrRatios = []image.YCbCrSubsampleRatio{
	image.YCbCrSubsampleRatio444,
	image.YCbCrSubsampleRatio422,
	image.YCbCrSubsampleRatio420,
	image.YCbCrSubsampleRatio440,
	image.YCbCrSubsampleRatio411,
	image.YCbCrSubsampleRatio410,
}

// typedTestImages returns, over rect, one image per type the stdlib PNG and
// JPEG decoders return: YCbCr and RGBA, which FromImage reads directly, and
// NRGBA, Gray and Paletted, which go through the At fallback. Gray16 stands
// for every other fallback type.
func typedTestImages(rng *rand.Rand, rect image.Rectangle) map[string]image.Image {
	out := map[string]image.Image{}
	for _, ratio := range ycbcrRatios {
		m := image.NewYCbCr(rect, ratio)
		fillRandom(rng, m.Y)
		fillRandom(rng, m.Cb)
		fillRandom(rng, m.Cr)
		out["YCbCr"+ratio.String()] = m
	}
	rgba := image.NewRGBA(rect)
	fillRandom(rng, rgba.Pix)
	out["RGBA"] = rgba
	nrgba := image.NewNRGBA(rect)
	fillRandom(rng, nrgba.Pix)
	for i := 3; i < len(nrgba.Pix); i += 4 {
		nrgba.Pix[i] = []uint8{0, 128, 255, nrgba.Pix[i]}[(i/4)%4]
	}
	out["NRGBA"] = nrgba
	gray := image.NewGray(rect)
	fillRandom(rng, gray.Pix)
	out["Gray"] = gray
	// A full palette of translucent entries, and a short one mixing colour
	// types, indexed only within its length.
	full := make(color.Palette, 256)
	for k := range full {
		full[k] = color.NRGBA{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256)), A: uint8(k)}
	}
	pal := image.NewPaletted(rect, full)
	fillRandom(rng, pal.Pix)
	out["Paletted256"] = pal
	short := color.Palette{
		color.NRGBA{R: 200, G: 100, B: 50, A: 128},
		color.RGBA{R: 10, G: 20, B: 30, A: 40},
		color.Gray{Y: 77},
		color.NRGBA{R: 255, G: 255, B: 255, A: 0},
		color.YCbCr{Y: 90, Cb: 200, Cr: 30},
	}
	spal := image.NewPaletted(rect, short)
	for i := range spal.Pix {
		spal.Pix[i] = uint8(rng.Intn(len(short)))
	}
	out["Paletted5"] = spal
	g16 := image.NewGray16(rect)
	fillRandom(rng, g16.Pix)
	out["Gray16"] = g16
	return out
}

func TestFromImageBitEqualReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	rects := []image.Rectangle{
		image.Rect(0, 0, 1, 1),
		image.Rect(0, 0, 3, 17),
		image.Rect(0, 0, 193, 319),
		// Negative origin: the chroma offsets truncate toward zero.
		image.Rect(-5, -3, 12, 14),
	}
	for _, rect := range rects {
		for name, m := range typedTestImages(rng, rect) {
			t.Run(fmt.Sprintf("%s/%v", name, rect), func(t *testing.T) {
				requireBitEqualReference(t, m)
			})
		}
	}
	// Sub-images with odd origins start mid chroma block and keep the
	// parent's stride.
	for name, m := range typedTestImages(rng, image.Rect(0, 0, 193, 319)) {
		sub := m.(interface {
			SubImage(image.Rectangle) image.Image
		}).SubImage(image.Rect(3, 5, 150, 201))
		t.Run(name+"/sub", func(t *testing.T) {
			requireBitEqualReference(t, sub)
		})
	}
}

// testPicture is a smooth gradient with a little noise, closer to a photo
// than uniform noise is.
func testPicture(w, h int) *image.NRGBA {
	rng := rand.New(rand.NewSource(int64(w*1000 + h)))
	m := image.NewNRGBA(image.Rect(0, 0, w, h))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			n := rng.Intn(24)
			m.SetNRGBA(x, y, color.NRGBA{
				R: uint8((x*255/w + n) % 256), G: uint8((y*255/h + n) % 256),
				B: uint8(((x+y)*127/(w+h) + 2*n) % 256), A: 255,
			})
		}
	}
	return m
}

func encodeTestPNG(t testing.TB, m image.Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := png.Encode(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeTestJPEG(t testing.TB, m image.Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := jpeg.Encode(&buf, m, &jpeg.Options{Quality: 90}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeBitEqualReference decodes real PNG and JPEG bytes, at the
// gateway (128×128) and CSP (non-power-of-two) geometries, and checks both
// the decoded type and Decode's samples against the reference.
func TestDecodeBitEqualReference(t *testing.T) {
	pic := testPicture(128, 128)
	translucent := testPicture(40, 30)
	for i := 3; i < len(translucent.Pix); i += 4 {
		translucent.Pix[i] = uint8(i * 7)
	}
	gray := image.NewGray(image.Rect(0, 0, 41, 23))
	fillRandom(rand.New(rand.NewSource(3)), gray.Pix)
	pal := image.NewPaletted(image.Rect(0, 0, 33, 9), color.Palette{
		color.NRGBA{R: 255, A: 80}, color.NRGBA{G: 255, A: 255}, color.NRGBA{B: 90, A: 0},
	})
	for i := range pal.Pix {
		pal.Pix[i] = uint8(i % 3)
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"png128", encodeTestPNG(t, pic), "*image.RGBA"},
		{"png-alpha", encodeTestPNG(t, translucent), "*image.NRGBA"},
		{"png-gray", encodeTestPNG(t, gray), "*image.Gray"},
		{"png-paletted", encodeTestPNG(t, pal), "*image.Paletted"},
		{"jpeg128", encodeTestJPEG(t, pic), "*image.YCbCr"},
		{"jpeg260x304", encodeTestJPEG(t, testPicture(260, 304)), "*image.YCbCr"},
		{"jpeg193x319", encodeTestJPEG(t, testPicture(193, 319)), "*image.YCbCr"},
		{"jpeg-gray", encodeTestJPEG(t, gray), "*image.Gray"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src, _, err := image.Decode(bytes.NewReader(tc.data))
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%T", src); got != tc.want {
				t.Fatalf("decoded %s, want %s", got, tc.want)
			}
			got, err := Decode(bytes.NewReader(tc.data))
			if err != nil {
				t.Fatal(err)
			}
			want := fromImageReference(src)
			for i := range want.Pix {
				if math.Float64bits(got.Pix[i]) != math.Float64bits(want.Pix[i]) {
					t.Fatalf("sample %d = %v, want %v", i, got.Pix[i], want.Pix[i])
				}
			}
		})
	}
}

// TestFromImageTypedCasesDoNotBox pins the point of the typed cases: the
// output image and its pixel slice are the only allocations.
func TestFromImageTypedCasesDoNotBox(t *testing.T) {
	for name, m := range typedTestImages(rand.New(rand.NewSource(5)), image.Rect(0, 0, 24, 16)) {
		if !strings.HasPrefix(name, "YCbCr") && name != "RGBA" {
			continue
		}
		if n := testing.AllocsPerRun(20, func() { FromImage(m) }); n > 2 {
			t.Errorf("%s: %v allocs per FromImage, want <= 2", name, n)
		}
	}
}

// pngHeader returns a PNG signature and IHDR chunk declaring a w×h RGB
// canvas, followed by one small IDAT chunk.
func pngHeader(w, h uint32) []byte {
	var b bytes.Buffer
	b.WriteString("\x89PNG\r\n\x1a\n")
	chunk := func(typ string, data []byte) {
		var n [4]byte
		putBE32(n[:], uint32(len(data)))
		b.Write(n[:])
		body := append([]byte(typ), data...)
		b.Write(body)
		putBE32(n[:], crc32.ChecksumIEEE(body))
		b.Write(n[:])
	}
	ihdr := make([]byte, 13)
	putBE32(ihdr[0:], w)
	putBE32(ihdr[4:], h)
	ihdr[8], ihdr[9] = 8, 2 // 8-bit truecolor
	chunk("IHDR", ihdr)
	chunk("IDAT", []byte{0x78, 0x9c, 0x62, 0x00, 0x00})
	return b.Bytes()
}

func putBE32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}

// jpegHeader returns an SOI, a JFIF APP0 and a baseline SOF0 declaring a
// w×h YCbCr canvas; with the JFIF marker DecodeConfig stops at the SOF.
func jpegHeader(w, h uint16) []byte {
	return []byte{
		0xff, 0xd8,
		0xff, 0xe0, 0x00, 0x10, 'J', 'F', 'I', 'F', 0x00, 0x01, 0x01, 0x00, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00,
		0xff, 0xc0, 0x00, 0x11, 0x08,
		byte(h >> 8), byte(h), byte(w >> 8), byte(w), 0x03,
		0x01, 0x22, 0x00, 0x02, 0x11, 0x01, 0x03, 0x11, 0x01,
	}
}

func TestDecodePixelBudget(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"png 50000x50000", pngHeader(50000, 50000)},
		{"png one past the budget", pngHeader(MaxPixels+1, 1)},
		{"jpeg 50000x50000", jpegHeader(50000, 50000)},
		{"jpeg 65535x513", jpegHeader(65535, 513)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			img, err := Decode(bytes.NewReader(tc.data))
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrTooLarge) || img != nil {
				t.Fatalf("Decode = %v, %v; want ErrTooLarge", img, err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Fatalf("rejecting the header allocated %d bytes, want < 1 MB", grew)
			}
		})
	}
	// At the budget (65535×512 ≤ 1<<25) the header passes and the missing
	// scan fails.
	if _, err := Decode(bytes.NewReader(jpegHeader(65535, 512))); err == nil || errors.Is(err, ErrTooLarge) {
		t.Fatalf("jpeg at the budget: err = %v, want a decode error", err)
	}
}

func TestValidateRejectsOverflowingGeometry(t *testing.T) {
	const big = 1 << 32
	if err := (&Image{W: big, H: big, C: 1}).Validate(); !errors.Is(err, ErrBadDimensions) {
		t.Errorf("Image.Validate = %v, want ErrBadDimensions", err)
	}
	if err := (&U8Image{W: big, H: big, C: 3}).Validate(); !errors.Is(err, ErrBadDimensions) {
		t.Errorf("U8Image.Validate = %v, want ErrBadDimensions", err)
	}
	if _, err := New(big, big, 1); !errors.Is(err, ErrBadDimensions) {
		t.Errorf("New = %v, want ErrBadDimensions", err)
	}
	if _, err := NewU8(big, big, 1); !errors.Is(err, ErrBadDimensions) {
		t.Errorf("NewU8 = %v, want ErrBadDimensions", err)
	}
}

func benchmarkDecode(b *testing.B, data []byte) {
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeJPEG260x304 decodes q90 JPEG bytes at a CSP geometry.
func BenchmarkDecodeJPEG260x304(b *testing.B) {
	benchmarkDecode(b, encodeTestJPEG(b, testPicture(260, 304)))
}

// BenchmarkDecodePNG128 decodes opaque PNG bytes at the gateway geometry.
func BenchmarkDecodePNG128(b *testing.B) {
	benchmarkDecode(b, encodeTestPNG(b, testPicture(128, 128)))
}
