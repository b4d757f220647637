package decamouflage_test

import (
	"bytes"
	"context"
	"hash/crc32"
	"image"
	"image/jpeg"
	"image/png"
	"testing"

	"decamouflage"
	"decamouflage/internal/detect"
	"decamouflage/internal/imgcore"
)

// decodeBytes routes binary PGM/PPM to DecodePNM and everything else to
// DecodeImage, as a service accepting all three formats would.
func decodeBytes(data []byte) (*decamouflage.Image, error) {
	if bytes.HasPrefix(data, []byte("P5")) || bytes.HasPrefix(data, []byte("P6")) {
		return imgcore.DecodePNM(bytes.NewReader(data))
	}
	return decamouflage.DecodeImage(bytes.NewReader(data))
}

// hugePNGHeader is a PNG signature, an IHDR declaring a w×h RGB canvas
// with a correct CRC, and the start of an IDAT chunk.
func hugePNGHeader(w, h uint32) []byte {
	var b bytes.Buffer
	b.WriteString("\x89PNG\r\n\x1a\n")
	body := []byte("IHDR\x00\x00\x00\x00\x00\x00\x00\x00\x08\x02\x00\x00\x00")
	body[4], body[5], body[6], body[7] = byte(w>>24), byte(w>>16), byte(w>>8), byte(w)
	body[8], body[9], body[10], body[11] = byte(h>>24), byte(h>>16), byte(h>>8), byte(h)
	crc := crc32.ChecksumIEEE(body)
	b.Write([]byte{0, 0, 0, 13})
	b.Write(body)
	b.Write([]byte{byte(crc >> 24), byte(crc >> 16), byte(crc >> 8), byte(crc)})
	b.Write([]byte{0, 0, 0x10, 0, 'I', 'D', 'A', 'T', 0x78, 0x9c})
	return b.Bytes()
}

// fuzzSeeds returns valid PNG, JPEG and PNM files, a truncated copy of
// each, and headers declaring absurd canvases.
func fuzzSeeds(t testing.TB) [][]byte {
	t.Helper()
	m := image.NewNRGBA(image.Rect(0, 0, 40, 32))
	for i := range m.Pix {
		m.Pix[i] = uint8(i * 37)
	}
	for i := 3; i < len(m.Pix); i += 4 {
		m.Pix[i] = 255
	}
	var pngBuf, jpegBuf, pnmBuf bytes.Buffer
	if err := png.Encode(&pngBuf, m); err != nil {
		t.Fatal(err)
	}
	if err := jpeg.Encode(&jpegBuf, m, &jpeg.Options{Quality: 90}); err != nil {
		t.Fatal(err)
	}
	gray := image.NewGray(image.Rect(0, 0, 24, 20))
	for i := range gray.Pix {
		gray.Pix[i] = uint8(i * 11)
	}
	if err := imgcore.EncodePNM(&pnmBuf, imgcore.FromImage(m)); err != nil {
		t.Fatal(err)
	}
	var pgmBuf bytes.Buffer
	if err := imgcore.EncodePNM(&pgmBuf, imgcore.FromGrayImage(gray)); err != nil {
		t.Fatal(err)
	}
	var seeds [][]byte
	for _, valid := range [][]byte{pngBuf.Bytes(), jpegBuf.Bytes(), pnmBuf.Bytes(), pgmBuf.Bytes()} {
		seeds = append(seeds, valid, valid[:len(valid)/2])
	}
	return append(seeds,
		hugePNGHeader(50000, 50000),
		[]byte("P5\n4294967296 4294967296\n255\n"),
	)
}

// FuzzDecodeDetect drives bytes through decode and the calibration-free
// steganalysis ensemble. Any input must either fail with an error or
// produce a valid image and a verdict; nothing may panic.
func FuzzDecodeDetect(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	det, err := decamouflage.NewSteganalysisDetector()
	if err != nil {
		f.Fatal(err)
	}
	ens, err := detect.NewEnsemble(det)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := decodeBytes(data)
		if err != nil {
			if img != nil {
				t.Fatalf("decode returned an image with error %v", err)
			}
			return
		}
		if verr := img.Validate(); verr != nil {
			t.Fatalf("decoded image fails validation: %v", verr)
		}
		v, err := decamouflage.Detect(context.Background(), ens, img)
		if err != nil {
			if v != nil {
				t.Fatalf("Detect returned a verdict with error %v", err)
			}
			return
		}
		if v == nil || len(v.Verdicts) != 1 {
			t.Fatalf("Detect = %+v, want one member verdict", v)
		}
	})
}
