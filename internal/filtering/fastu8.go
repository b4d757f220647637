// Minimum filter over the 8-bit image view: the uint8 instantiation of
// the erosion kernel in fast.go, for callers that already hold an
// imgcore.U8Image — one byte per sample instead of eight. Comparisons on
// integers order identically to comparisons on their float64 images, so
// MinimumU8Ctx is bit-exact against the float64 instantiation after
// FromU8 (pinned by the u8 equivalence suite and the fixed-point fuzzer).
package filtering

import (
	"context"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/parallel"
)

// MinimumU8Ctx applies a size×size minimum filter to an 8-bit image,
// honouring ctx cancellation in its parallel sweeps. The output equals
// Minimum over FromU8(u) bit-exactly.
func MinimumU8Ctx(ctx context.Context, u *imgcore.U8Image, size int) (*imgcore.U8Image, error) {
	return minFilterU8(ctx, u, size)
}

// minFilterU8 is MinimumU8Ctx with parallel options threaded through.
func minFilterU8(ctx context.Context, u *imgcore.U8Image, size int, popts ...parallel.Option) (*imgcore.U8Image, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	if err := checkWindow(size); err != nil {
		return nil, err
	}
	out := &imgcore.U8Image{W: u.W, H: u.H, C: u.C, Pix: make([]uint8, len(u.Pix))}
	if err := erode(ctx, out.Pix, make([]uint8, len(u.Pix)), u.Pix, u.W, u.H, u.C, size, popts...); err != nil {
		return nil, err
	}
	return out, nil
}
