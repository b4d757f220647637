package imgcore

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"decamouflage/internal/testutil"
)

func TestPNMRoundTripColor(t *testing.T) {
	img := MustNew(5, 3, 3)
	for i := range img.Pix {
		img.Pix[i] = float64((i * 17) % 256)
	}
	var buf bytes.Buffer
	if err := EncodePNM(&buf, img); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "P6\n5 3\n255\n") {
		t.Fatalf("header: %q", buf.String()[:12])
	}
	back, err := DecodePNM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.SameShape(img) {
		t.Fatalf("shape %v", back)
	}
	for i := range img.Pix {
		if !testutil.BitEqual(back.Pix[i], img.Pix[i]) {
			t.Fatalf("sample %d = %v, want %v", i, back.Pix[i], img.Pix[i])
		}
	}
}

func TestPNMRoundTripGray(t *testing.T) {
	img := MustNew(4, 4, 1)
	for i := range img.Pix {
		img.Pix[i] = float64(i * 16)
	}
	var buf bytes.Buffer
	if err := EncodePNM(&buf, img); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "P5\n") {
		t.Fatal("gray image should be P5")
	}
	back, err := DecodePNM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.C != 1 {
		t.Fatalf("channels = %d", back.C)
	}
	for i := range img.Pix {
		if !testutil.BitEqual(back.Pix[i], img.Pix[i]) {
			t.Fatalf("sample %d mismatch", i)
		}
	}
}

func TestPNMCommentsAndWhitespace(t *testing.T) {
	data := "P5 # a comment\n# full line comment\n 2\t2 \n255\n" + string([]byte{0, 85, 170, 255})
	img, err := DecodePNM(strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 85, 170, 255}
	for i := range want {
		if !testutil.BitEqual(img.Pix[i], want[i]) {
			t.Fatalf("sample %d = %v", i, img.Pix[i])
		}
	}
}

func TestPNM16Bit(t *testing.T) {
	// 1x1 P5 with maxval 65535, sample 0xFFFF -> 255.
	data := "P5\n1 1\n65535\n" + string([]byte{0xFF, 0xFF})
	img, err := DecodePNM(strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.BitEqual(img.Pix[0], 255) {
		t.Fatalf("16-bit max = %v", img.Pix[0])
	}
	// Half scale.
	data = "P5\n1 1\n65535\n" + string([]byte{0x7F, 0xFF})
	img, err = DecodePNM(strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if img.Pix[0] < 127 || img.Pix[0] > 128 {
		t.Fatalf("16-bit half = %v", img.Pix[0])
	}
}

func TestPNMErrors(t *testing.T) {
	cases := []string{
		"",                       // empty
		"P3\n1 1\n255\n0 0 0",    // ASCII variant unsupported
		"P5\n0 1\n255\n",         // zero width
		"P5\n2 2\n0\n",           // bad maxval
		"P5\n2 2\n70000\n",       // maxval too large
		"P5\nx 2\n255\n",         // non-integer
		"P5\n2 2\n255\n\x00\x01", // truncated samples
		"P6\n1 1\n255\n\x00\x01", // truncated color samples
		"P5\n1 1\n65535\n\x00",   // truncated 16-bit
	}
	for i, c := range cases {
		if _, err := DecodePNM(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted: %q", i, c)
		}
	}
	var buf bytes.Buffer
	if err := EncodePNM(&buf, &Image{}); err == nil {
		t.Error("empty image encoded")
	}
}

// TestPNMBodyPastFirstChunk covers bodies longer than readBody's first
// 64 KiB buffer: a full one round-trips, and one that ends exactly at a
// buffer boundary fails with ErrUnexpectedEOF.
func TestPNMBodyPastFirstChunk(t *testing.T) {
	img := MustNew(200, 150, 3) // 90000 body bytes
	for i := range img.Pix {
		img.Pix[i] = float64((i * 31) % 256)
	}
	var buf bytes.Buffer
	if err := EncodePNM(&buf, img); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	back, err := DecodePNM(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := range img.Pix {
		if !testutil.BitEqual(back.Pix[i], img.Pix[i]) {
			t.Fatalf("sample %d = %v, want %v", i, back.Pix[i], img.Pix[i])
		}
	}
	header := len("P6\n200 150\n255\n")
	if _, err := DecodePNM(bytes.NewReader(data[:header+64<<10])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("body cut at 64 KiB: err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestPNMFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	img := MustNew(6, 4, 3)
	img.Fill(99)
	path := filepath.Join(dir, "sub", "x.ppm")
	if err := img.SavePNM(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPNM(path)
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.BitEqual(back.Mean(), 99) {
		t.Fatalf("mean = %v", back.Mean())
	}
	if _, err := LoadPNM(filepath.Join(dir, "missing.ppm")); err == nil {
		t.Error("missing file accepted")
	}
}
