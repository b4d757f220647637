package filtering

import (
	"context"
	"testing"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/testutil"
)

// FuzzFixedPointKernels cross-checks the uint8 minimum filter against its
// float64 oracle on adversarial geometry: 1×N and N×1 images, windows at
// least as large as the image, tiny and prime sizes. The two must agree
// bit-for-bit (integer comparisons order exactly like float64 on 8-bit
// data), and on error presence.
func FuzzFixedPointKernels(f *testing.F) {
	f.Add(uint8(16), uint8(12), true, uint8(3), []byte{0, 128, 255})
	f.Add(uint8(1), uint8(24), false, uint8(2), []byte{9})      // 1×N
	f.Add(uint8(24), uint8(1), true, uint8(2), []byte{255, 1})  // N×1
	f.Add(uint8(5), uint8(7), false, uint8(11), []byte{4, 200}) // window ≥ image
	f.Add(uint8(9), uint8(9), true, uint8(4), []byte("prime"))  // odd square
	f.Add(uint8(8), uint8(8), false, uint8(6), []byte{17, 3, 99})
	f.Add(uint8(12), uint8(5), true, uint8(0), []byte{200, 7, 255, 31}) // odd width 13, 2×2 RGB
	f.Fuzz(func(t *testing.T, w8, h8 uint8, rgb bool, win8 uint8, pix []byte) {
		w, h := int(w8%33)+1, int(h8%33)+1
		channels := 1
		if rgb {
			channels = 3
		}
		u, err := imgcore.NewU8(w, h, channels)
		if err != nil {
			t.Fatal(err)
		}
		for i := range u.Pix {
			if len(pix) > 0 {
				u.Pix[i] = pix[i%len(pix)]
			}
		}
		img, err := imgcore.FromU8(u)
		if err != nil {
			t.Fatal(err)
		}
		size := 2 + int(win8%12)

		minU8, gerr := MinimumU8Ctx(context.Background(), u, size)
		minF, werr := erodeFloat(img, size)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("error disagreement: u8=%v float=%v", gerr, werr)
		}
		if gerr != nil {
			return
		}
		got, err := imgcore.FromU8(minU8)
		if err != nil {
			t.Fatal(err)
		}
		if i := testutil.FirstDiff(got.Pix, minF.Pix); i != -1 {
			t.Fatalf("sample %d: u8 %v != float %v (%dx%dx%d window %d)",
				i, got.Pix[i], minF.Pix[i], w, h, channels, size)
		}
	})
}
