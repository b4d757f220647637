// U8Image: the planar 8-bit view of the float64 Image. Every sample the
// detection pipeline actually sees is an 8-bit intensity — decoded PNGs,
// quantized attack outputs, the corpus generators — stored 2–8× wider than
// the data it carries. The minimum filter's uint8 lane
// (filtering.MinimumInto) runs over this view; ToU8/FromU8 are the
// lossless bridges between the two representations.
//
// The conversion contract is exact: ToU8 succeeds only when every sample
// is integral and in [0, 255], and FromU8(ToU8(m)) reproduces m
// bit-identically (integral values up to 255 are exactly representable in
// float64). Anything else — fractional samples, out-of-range values, NaN,
// infinities — stays on the float64 path.
package imgcore

import "fmt"

// U8Image is a dense 8-bit image with the same geometry and sample layout
// as Image: H rows, W columns, C channels, row-major with interleaved
// channels at Pix[(y*W+x)*C + c].
//
// The zero value is an empty image; use NewU8 to construct a valid one.
type U8Image struct {
	W, H, C int
	Pix     []uint8
}

// NewU8 returns a zero-filled 8-bit image of the given geometry.
func NewU8(w, h, c int) (*U8Image, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("%w: %dx%d", ErrBadDimensions, w, h)
	}
	if c != 1 && c != 3 {
		return nil, fmt.Errorf("%w: got %d", ErrBadChannels, c)
	}
	if err := checkSize(w, h, c); err != nil {
		return nil, err
	}
	return &U8Image{W: w, H: h, C: c, Pix: make([]uint8, w*h*c)}, nil
}

// Validate checks internal consistency of the image header against its
// backing slice.
func (u *U8Image) Validate() error {
	if u == nil || u.W == 0 || u.H == 0 {
		return ErrEmptyImage
	}
	if u.W < 0 || u.H < 0 {
		return fmt.Errorf("%w: %dx%d", ErrBadDimensions, u.W, u.H)
	}
	if u.C != 1 && u.C != 3 {
		return fmt.Errorf("%w: got %d", ErrBadChannels, u.C)
	}
	if err := checkSize(u.W, u.H, u.C); err != nil {
		return err
	}
	if len(u.Pix) != u.W*u.H*u.C {
		return fmt.Errorf("imgcore: pixel buffer length %d does not match %dx%dx%d",
			len(u.Pix), u.W, u.H, u.C)
	}
	return nil
}

// At returns the sample at (x, y, c). Out-of-range coordinates are the
// caller's responsibility, as with Image.At.
func (u *U8Image) At(x, y, c int) uint8 {
	return u.Pix[(y*u.W+x)*u.C+c]
}

// Set writes the sample at (x, y, c).
func (u *U8Image) Set(x, y, c int, v uint8) {
	u.Pix[(y*u.W+x)*u.C+c] = v
}

// Clone returns a deep copy of the image.
func (u *U8Image) Clone() *U8Image {
	out := &U8Image{W: u.W, H: u.H, C: u.C, Pix: make([]uint8, len(u.Pix))}
	copy(out.Pix, u.Pix)
	return out
}

// String implements fmt.Stringer with a compact geometry description.
func (u *U8Image) String() string {
	if u == nil {
		return "U8Image(nil)"
	}
	return fmt.Sprintf("U8Image(%dx%dx%d)", u.W, u.H, u.C)
}

// ToU8 returns the lossless 8-bit view of the image, or (nil, false) when
// any sample is fractional, outside [0, 255], NaN or infinite. A true
// result guarantees FromU8 reproduces the receiver bit-identically.
func (m *Image) ToU8() (*U8Image, bool) {
	if m.Validate() != nil {
		return nil, false
	}
	out := &U8Image{W: m.W, H: m.H, C: m.C, Pix: make([]uint8, len(m.Pix))}
	if !toU8Into(out.Pix, m.Pix) {
		return nil, false
	}
	return out, true
}

// toU8Into narrows src into dst, reporting false at the first sample that
// is not an integral value in [0, 255]. dst and src must have equal length.
//
//declint:hot
func toU8Into(dst []uint8, src []float64) bool {
	for i, v := range src {
		// NaN fails both bounds checks; ±Inf fails one of them.
		if !(v >= 0 && v <= MaxPixel) {
			return false
		}
		b := uint8(v)
		//declint:ignore floateq integral floats in [0,255] round-trip uint8 exactly; any inequality means a fractional sample
		if float64(b) != v {
			return false
		}
		dst[i] = b
	}
	return true
}

// FromU8 widens an 8-bit image into a new float64 Image. The conversion
// is exact: every uint8 value is exactly representable as a float64.
func FromU8(u *U8Image) (*Image, error) {
	if err := u.Validate(); err != nil {
		return nil, err
	}
	out := &Image{W: u.W, H: u.H, C: u.C, Pix: make([]float64, len(u.Pix))}
	fromU8Into(out.Pix, u.Pix)
	return out, nil
}

// FromU8Into widens u into dst, which must already have u's geometry. It
// is the allocation-free variant of FromU8 for callers that recycle
// float64 buffers.
func FromU8Into(u *U8Image, dst *Image) error {
	if err := u.Validate(); err != nil {
		return err
	}
	if err := dst.Validate(); err != nil {
		return err
	}
	if dst.W != u.W || dst.H != u.H || dst.C != u.C {
		return fmt.Errorf("%w: dst %dx%dx%d, want %dx%dx%d",
			ErrShapeMismatch, dst.W, dst.H, dst.C, u.W, u.H, u.C)
	}
	fromU8Into(dst.Pix, u.Pix)
	return nil
}

// fromU8Into widens src into dst of equal length.
//
//declint:hot
func fromU8Into(dst []float64, src []uint8) {
	for i, v := range src {
		dst[i] = float64(v)
	}
}
