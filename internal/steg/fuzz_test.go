package steg

import (
	"math"
	"testing"

	"decamouflage/internal/imgcore"
)

// FuzzCSP drives the whole steganalysis pipeline (gray → 2-D FFT →
// fftshift → blur → binarize → connected components) with tiny and
// degenerate images built from arbitrary bytes: extreme option values,
// 1-pixel images, prime geometries hitting the Bluestein FFT branch,
// constant, denormal, huge, NaN and Inf pixels. The contract under test:
// CSP must never panic — malformed inputs yield an error, valid ones a
// non-negative count.
func FuzzCSP(f *testing.F) {
	f.Add(uint8(1), uint8(1), true, []byte{0}, int16(0), int16(0))
	f.Add(uint8(3), uint8(2), false, []byte{0, 50, 100, 150, 200, 250}, int16(78), int16(100))
	f.Add(uint8(7), uint8(11), true, []byte("prime sizes exercise bluestein"), int16(50), int16(-1))
	f.Add(uint8(16), uint8(16), true, []byte{255}, int16(99), int16(4))
	f.Add(uint8(0), uint8(4), true, []byte{1, 2, 3}, int16(78), int16(0)) // zero width → error
	// Widths 15, 16, 17 and 33: the blur's 16-sample blocks against its
	// portable tail.
	f.Add(uint8(15), uint8(9), true, []byte{0, 90, 255, 3}, int16(78), int16(0))
	f.Add(uint8(16), uint8(21), false, []byte("sixteen"), int16(78), int16(0))
	f.Add(uint8(17), uint8(16), true, []byte{200, 1}, int16(50), int16(2))
	f.Add(uint8(33), uint8(12), true, []byte{7, 77, 177}, int16(78), int16(0))
	f.Fuzz(func(t *testing.T, w, h uint8, grayscale bool, pix []byte, thPct, minArea int16) {
		// Widths reach 64, past two of the blur's 16-sample blocks.
		width := int(w % 65)
		height := int(h % 33)
		channels := 3
		if grayscale {
			channels = 1
		}
		img, err := imgcore.New(width, height, channels)
		if err != nil {
			// Invalid geometry: CSP must reject the same image header
			// without panicking.
			bad := &imgcore.Image{W: width, H: height, C: channels, Pix: nil}
			if _, cerr := CSP(bad, Options{}); cerr == nil {
				t.Fatalf("CSP accepted invalid geometry %dx%dx%d", width, height, channels)
			}
			return
		}
		for i := range img.Pix {
			var v float64
			if len(pix) > 0 {
				v = float64(pix[i%len(pix)])
			}
			// Byte 13/17/19 positions get pathological values so the
			// spectrum and its normalization see non-finite input.
			switch i % 23 {
			case 13:
				v = math.Inf(1)
			case 17:
				v = math.NaN()
			case 19:
				v = v * 1e300
			}
			img.Pix[i] = v
		}
		opts := Options{
			BinarizeThreshold: float64(thPct) / 100,
			MinArea:           int(minArea),
		}
		count, err := CSP(img, opts)
		if err != nil {
			return // rejected cleanly (e.g. threshold outside (0,1))
		}
		if count < 0 {
			t.Fatalf("CSP = %d < 0", count)
		}
		if count > width*height {
			t.Fatalf("CSP = %d exceeds pixel count %d", count, width*height)
		}
	})
}

// FuzzLabelComponents stresses the connected-component labeller with
// arbitrary masks and inconsistent geometry claims.
func FuzzLabelComponents(f *testing.F) {
	f.Add([]byte{1, 0, 1, 1}, uint8(2), uint8(2))
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{1}, uint8(30), uint8(30)) // claimed size ≠ mask length
	f.Fuzz(func(t *testing.T, raw []byte, w, h uint8) {
		mask := make([]bool, len(raw))
		fg := 0
		for i, b := range raw {
			mask[i] = b&1 == 1
			if mask[i] {
				fg++
			}
		}
		labels, areas := LabelComponents(mask, int(w), int(h))
		if int(w)*int(h) != len(mask) || w == 0 || h == 0 {
			if labels != nil || areas != nil {
				t.Fatal("malformed input must yield nil results")
			}
			return
		}
		total := 0
		for _, a := range areas {
			if a <= 0 {
				t.Fatalf("component area %d <= 0", a)
			}
			total += a
		}
		if total != fg {
			t.Fatalf("component areas sum to %d, want %d foreground pixels", total, fg)
		}
		for i, l := range labels {
			if l < 0 || l > len(areas) {
				t.Fatalf("pixel %d has out-of-range label %d", i, l)
			}
			if (l != 0) != mask[i] {
				t.Fatalf("pixel %d labelled %d but mask=%v", i, l, mask[i])
			}
		}
	})
}
