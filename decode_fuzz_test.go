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
)

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

// fuzzSeeds returns valid PNG and JPEG files in colour and in grayscale
// (which decode to *image.Gray), a truncated copy of each, and headers
// declaring absurd canvases, the second the largest a PNG header allows.
func fuzzSeeds(t testing.TB) [][]byte {
	t.Helper()
	m := image.NewNRGBA(image.Rect(0, 0, 40, 32))
	for i := range m.Pix {
		m.Pix[i] = uint8(i * 37)
	}
	for i := 3; i < len(m.Pix); i += 4 {
		m.Pix[i] = 255
	}
	gray := image.NewGray(image.Rect(0, 0, 24, 20))
	for i := range gray.Pix {
		gray.Pix[i] = uint8(i * 11)
	}
	var seeds [][]byte
	for _, src := range []image.Image{m, gray} {
		var pngBuf, jpegBuf bytes.Buffer
		if err := png.Encode(&pngBuf, src); err != nil {
			t.Fatal(err)
		}
		if err := jpeg.Encode(&jpegBuf, src, &jpeg.Options{Quality: 90}); err != nil {
			t.Fatal(err)
		}
		for _, valid := range [][]byte{pngBuf.Bytes(), jpegBuf.Bytes()} {
			seeds = append(seeds, valid, valid[:len(valid)/2])
		}
	}
	return append(seeds, hugePNGHeader(50000, 50000), hugePNGHeader(1<<31-1, 1<<31-1))
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
		img, err := decamouflage.DecodeImage(bytes.NewReader(data))
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
