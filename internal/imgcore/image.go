// Package imgcore provides the floating-point image representation shared by
// every Decamouflage subsystem, together with conversions to and from the
// standard library image types and PNG/JPEG codecs.
//
// Pixels are stored as float64 in the range [0, 255] in planar-interleaved
// row-major order (y, x, channel). Floating point is used throughout the
// pipeline so that the attack optimizer and the detection metrics are not
// perturbed by intermediate quantization; quantization to 8-bit happens only
// at encode time, where ToNRGBA and ToGray round and clamp each sample.
package imgcore

import (
	"errors"
	"fmt"
	"math"
)

// MaxPixel is the maximum representable pixel intensity for 8-bit images.
const MaxPixel = 255.0

// Common errors returned by image constructors and accessors.
var (
	// ErrEmptyImage indicates a zero-sized image where a non-empty one is
	// required.
	ErrEmptyImage = errors.New("imgcore: empty image")
	// ErrShapeMismatch indicates two images whose dimensions were expected
	// to agree but do not.
	ErrShapeMismatch = errors.New("imgcore: shape mismatch")
	// ErrBadChannels indicates an unsupported channel count.
	ErrBadChannels = errors.New("imgcore: channel count must be 1 or 3")
	// ErrBadDimensions indicates a non-positive width or height, or a
	// geometry whose sample count W·H·C overflows an int.
	ErrBadDimensions = errors.New("imgcore: invalid width or height")
)

// Image is a dense floating-point image with H rows, W columns and C
// channels (1 for grayscale, 3 for RGB). Pix holds H*W*C samples in
// row-major order with interleaved channels: Pix[(y*W+x)*C + c].
//
// The zero value is an empty image; use New to construct a valid one.
type Image struct {
	W, H, C int
	Pix     []float64
}

// New returns a zero-filled image of the given geometry.
// It returns an error if the geometry is invalid.
func New(w, h, c int) (*Image, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("%w: %dx%d", ErrBadDimensions, w, h)
	}
	if c != 1 && c != 3 {
		return nil, fmt.Errorf("%w: got %d", ErrBadChannels, c)
	}
	if err := checkSize(w, h, c); err != nil {
		return nil, err
	}
	return &Image{W: w, H: h, C: c, Pix: make([]float64, w*h*c)}, nil
}

// checkSize returns ErrBadDimensions when w*h*c overflows an int. All three
// must be positive. It divides rather than multiplies, so it cannot wrap.
func checkSize(w, h, c int) error {
	if w > math.MaxInt/h/c {
		return fmt.Errorf("%w: %dx%dx%d samples overflow int", ErrBadDimensions, w, h, c)
	}
	return nil
}

// MustNew is New for static geometries known to be valid; it panics on error
// and is intended for tests and package-internal constants only.
func MustNew(w, h, c int) *Image {
	img, err := New(w, h, c)
	if err != nil {
		panic(err)
	}
	return img
}

// Validate checks internal consistency of the image header against its
// backing slice.
func (m *Image) Validate() error {
	if m == nil || m.W == 0 || m.H == 0 {
		return ErrEmptyImage
	}
	if m.W < 0 || m.H < 0 {
		return fmt.Errorf("%w: %dx%d", ErrBadDimensions, m.W, m.H)
	}
	if m.C != 1 && m.C != 3 {
		return fmt.Errorf("%w: got %d", ErrBadChannels, m.C)
	}
	if err := checkSize(m.W, m.H, m.C); err != nil {
		return err
	}
	if len(m.Pix) != m.W*m.H*m.C {
		return fmt.Errorf("imgcore: pixel buffer length %d does not match %dx%dx%d",
			len(m.Pix), m.W, m.H, m.C)
	}
	return nil
}

// SameShape reports whether m and o have identical geometry.
func (m *Image) SameShape(o *Image) bool {
	return m != nil && o != nil && m.W == o.W && m.H == o.H && m.C == o.C
}

// At returns the sample at (x, y, c). Out-of-range coordinates are the
// caller's responsibility; At performs no bounds checking beyond the slice's.
func (m *Image) At(x, y, c int) float64 {
	return m.Pix[(y*m.W+x)*m.C+c]
}

// Set writes the sample at (x, y, c).
func (m *Image) Set(x, y, c int, v float64) {
	m.Pix[(y*m.W+x)*m.C+c] = v
}

// AtClamped returns the sample at (x, y, c) with coordinates clamped to the
// image border (replicate padding), the convention used by the scaling
// kernels and spatial filters.
func (m *Image) AtClamped(x, y, c int) float64 {
	if x < 0 {
		x = 0
	} else if x >= m.W {
		x = m.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= m.H {
		y = m.H - 1
	}
	return m.Pix[(y*m.W+x)*m.C+c]
}

// Clone returns a deep copy of the image.
func (m *Image) Clone() *Image {
	out := &Image{W: m.W, H: m.H, C: m.C, Pix: make([]float64, len(m.Pix))}
	copy(out.Pix, m.Pix)
	return out
}

// Quantize8 rounds every sample to the nearest integer and clamps to
// [0, 255] in place, simulating an 8-bit round trip, and returns the image.
func (m *Image) Quantize8() *Image {
	for i, v := range m.Pix {
		v = math.Round(v)
		if v < 0 {
			v = 0
		} else if v > MaxPixel {
			v = MaxPixel
		}
		m.Pix[i] = v
	}
	return m
}

// Gray returns a single-channel luminance copy of the image using the
// ITU-R BT.601 weights (the convention OpenCV uses for RGB→gray). A
// grayscale input is cloned.
func (m *Image) Gray() *Image {
	if m.C == 1 {
		return m.Clone()
	}
	out := &Image{W: m.W, H: m.H, C: 1, Pix: make([]float64, m.W*m.H)}
	GrayInto(out.Pix, m.Pix)
	return out
}

// GrayInto writes the BT.601 luminance of an interleaved 3-channel pixel
// plane into dst (len(pix) == 3·len(dst)). It is the repository's one
// luminance expression: Gray, SSIM's luminance plane and the detection
// pipeline's gray stage all call it, so their gray planes are bit-identical.
//
//declint:hot
func GrayInto(dst, pix []float64) {
	for i := range dst {
		r := pix[i*3]
		g := pix[i*3+1]
		b := pix[i*3+2]
		dst[i] = 0.299*r + 0.587*g + 0.114*b
	}
}

// Channel extracts channel c as a new single-channel image.
func (m *Image) Channel(c int) (*Image, error) {
	if c < 0 || c >= m.C {
		return nil, fmt.Errorf("imgcore: channel %d out of range [0,%d)", c, m.C)
	}
	out := &Image{W: m.W, H: m.H, C: 1, Pix: make([]float64, m.W*m.H)}
	for i := 0; i < m.W*m.H; i++ {
		out.Pix[i] = m.Pix[i*m.C+c]
	}
	return out, nil
}

// SetChannel overwrites channel c of m with the single-channel image src.
func (m *Image) SetChannel(c int, src *Image) error {
	if c < 0 || c >= m.C {
		return fmt.Errorf("imgcore: channel %d out of range [0,%d)", c, m.C)
	}
	if src.C != 1 || src.W != m.W || src.H != m.H {
		return fmt.Errorf("%w: want %dx%dx1, got %dx%dx%d",
			ErrShapeMismatch, m.W, m.H, src.W, src.H, src.C)
	}
	for i := 0; i < m.W*m.H; i++ {
		m.Pix[i*m.C+c] = src.Pix[i]
	}
	return nil
}

// Sub returns m - o as a new image. The shapes must match.
func (m *Image) Sub(o *Image) (*Image, error) {
	if !m.SameShape(o) {
		return nil, fmt.Errorf("%w: %dx%dx%d vs %dx%dx%d",
			ErrShapeMismatch, m.W, m.H, m.C, o.W, o.H, o.C)
	}
	out := m.Clone()
	for i := range out.Pix {
		out.Pix[i] -= o.Pix[i]
	}
	return out, nil
}

// Add returns m + o as a new image. The shapes must match.
func (m *Image) Add(o *Image) (*Image, error) {
	if !m.SameShape(o) {
		return nil, fmt.Errorf("%w: %dx%dx%d vs %dx%dx%d",
			ErrShapeMismatch, m.W, m.H, m.C, o.W, o.H, o.C)
	}
	out := m.Clone()
	for i := range out.Pix {
		out.Pix[i] += o.Pix[i]
	}
	return out, nil
}

// Scale multiplies every sample by k in place and returns the image.
func (m *Image) Scale(k float64) *Image {
	for i := range m.Pix {
		m.Pix[i] *= k
	}
	return m
}

// Fill sets every sample to v and returns the image.
func (m *Image) Fill(v float64) *Image {
	for i := range m.Pix {
		m.Pix[i] = v
	}
	return m
}

// Mean returns the mean sample value across all channels.
func (m *Image) Mean() float64 {
	if len(m.Pix) == 0 {
		return 0
	}
	var s float64
	for _, v := range m.Pix {
		s += v
	}
	return s / float64(len(m.Pix))
}

// MinMax returns the smallest and largest sample values. It returns (0, 0)
// for an empty image.
func (m *Image) MinMax() (lo, hi float64) {
	if len(m.Pix) == 0 {
		return 0, 0
	}
	lo, hi = m.Pix[0], m.Pix[0]
	for _, v := range m.Pix[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// AbsMax returns the largest absolute sample value, or 0 for an empty image.
func (m *Image) AbsMax() float64 {
	var mx float64
	for _, v := range m.Pix {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// HasNaN reports whether any sample is NaN or infinite.
func (m *Image) HasNaN() bool {
	for _, v := range m.Pix {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// String implements fmt.Stringer with a compact geometry description.
func (m *Image) String() string {
	if m == nil {
		return "Image(nil)"
	}
	return fmt.Sprintf("Image(%dx%dx%d)", m.W, m.H, m.C)
}
