package imgcore

import (
	"bytes"
	"errors"
	"fmt"
	"image"
	"image/color"
	"image/jpeg"
	"image/png"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// MaxPixels is the largest width×height Decode accepts. It
// is about 33.5 MP, enough for 8K UHD (7680×4320). The limit is checked
// against the header before any pixel buffer is allocated, so a tiny file
// declaring a huge canvas costs only its header.
const MaxPixels = 1 << 25

// ErrTooLarge indicates an image whose declared geometry exceeds MaxPixels.
var ErrTooLarge = errors.New("imgcore: image exceeds pixel budget")

// checkPixels returns ErrTooLarge when w×h exceeds MaxPixels. It divides
// rather than multiplies, so absurd header values cannot wrap.
func checkPixels(w, h int) error {
	if w > 0 && h > 0 && w > MaxPixels/h {
		return fmt.Errorf("%w: %dx%d > %d pixels", ErrTooLarge, w, h, MaxPixels)
	}
	return nil
}

// FromImage converts any stdlib image.Image into a 3-channel float image.
// Alpha is discarded (composited over black is not applied; the raw RGB
// samples are used, matching how vision pipelines ingest images).
//
// The two types colour JPEGs and opaque PNGs decode to (*image.YCbCr and
// *image.RGBA) are read straight from their pixel buffers. Every other type
// goes through At(x, y).RGBA(), which boxes each pixel. Both paths produce
// the same samples: the typed cases keep the high byte of their concrete
// colour type's RGBA, exactly as the At path does.
func FromImage(src image.Image) *Image {
	b := src.Bounds()
	w, h := b.Dx(), b.Dy()
	out := &Image{W: w, H: h, C: 3, Pix: make([]float64, w*h*3)}
	switch s := src.(type) {
	case *image.YCbCr:
		fromYCbCr(out.Pix, s)
	case *image.RGBA:
		fromRGBA(out.Pix, s.Pix, s.Stride, w, h)
	default:
		fromAt(out.Pix, src)
	}
	return out
}

// fromAt is the generic conversion: one boxed colour per pixel.
func fromAt(dst []float64, src image.Image) {
	b := src.Bounds()
	i := 0
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			r, g, bb, _ := src.At(x, y).RGBA()
			dst[i] = float64(r >> 8)
			dst[i+1] = float64(g >> 8)
			dst[i+2] = float64(bb >> 8)
			i += 3
		}
	}
}

// fromYCbCr converts every JPEG colour image, at any subsample ratio. The
// luma and chroma offsets follow image.YCbCr's YOffset and COffset,
// including their truncating division, with the chroma row hoisted out of
// the x loop.
//
//declint:hot
func fromYCbCr(dst []float64, s *image.YCbCr) {
	r := s.Rect
	hdiv, vdiv := 1, 1
	switch s.SubsampleRatio {
	case image.YCbCrSubsampleRatio422:
		hdiv = 2
	case image.YCbCrSubsampleRatio420:
		hdiv, vdiv = 2, 2
	case image.YCbCrSubsampleRatio440:
		vdiv = 2
	case image.YCbCrSubsampleRatio411:
		hdiv = 4
	case image.YCbCrSubsampleRatio410:
		hdiv, vdiv = 4, 2
	}
	i := 0
	for y := r.Min.Y; y < r.Max.Y; y++ {
		yi := (y - r.Min.Y) * s.YStride
		crow := (y/vdiv - r.Min.Y/vdiv) * s.CStride
		for x := r.Min.X; x < r.Max.X; x++ {
			var cx int
			switch hdiv {
			case 1:
				cx = x - r.Min.X
			case 2:
				cx = x/2 - r.Min.X/2
			default:
				cx = x/4 - r.Min.X/4
			}
			ci := crow + cx
			red, green, blue, _ := color.YCbCr{Y: s.Y[yi], Cb: s.Cb[ci], Cr: s.Cr[ci]}.RGBA()
			dst[i] = float64(red >> 8)
			dst[i+1] = float64(green >> 8)
			dst[i+2] = float64(blue >> 8)
			yi++
			i += 3
		}
	}
}

// fromRGBA converts what opaque PNGs decode to. color.RGBA's RGBA widens
// each byte v to v<<8|v, so its high byte is the stored byte. pix starts at
// the image's first pixel, as every stdlib Pix does.
//
//declint:hot
func fromRGBA(dst []float64, pix []uint8, stride, w, h int) {
	i := 0
	for y := 0; y < h; y++ {
		row := pix[y*stride : y*stride+4*w]
		for x := 0; x < 4*w; x += 4 {
			dst[i] = float64(row[x])
			dst[i+1] = float64(row[x+1])
			dst[i+2] = float64(row[x+2])
			i += 3
		}
	}
}

// FromGrayImage converts a stdlib image into a single-channel luminance
// image using BT.601 weights.
func FromGrayImage(src image.Image) *Image {
	return FromImage(src).Gray()
}

// ToNRGBA converts the image into an 8-bit stdlib NRGBA image, rounding and
// clamping samples. Grayscale images are replicated across RGB.
func (m *Image) ToNRGBA() *image.NRGBA {
	out := image.NewNRGBA(image.Rect(0, 0, m.W, m.H))
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			var r, g, b float64
			if m.C == 1 {
				r = m.At(x, y, 0)
				g, b = r, r
			} else {
				r = m.At(x, y, 0)
				g = m.At(x, y, 1)
				b = m.At(x, y, 2)
			}
			out.SetNRGBA(x, y, color.NRGBA{
				R: clampByte(r), G: clampByte(g), B: clampByte(b), A: 255,
			})
		}
	}
	return out
}

// ToGray converts the image into an 8-bit stdlib grayscale image.
func (m *Image) ToGray() *image.Gray {
	g := m
	if m.C != 1 {
		g = m.Gray()
	}
	out := image.NewGray(image.Rect(0, 0, g.W, g.H))
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			out.SetGray(x, y, color.Gray{Y: clampByte(g.At(x, y, 0))})
		}
	}
	return out
}

func clampByte(v float64) uint8 {
	v = math.Round(v)
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// Decode reads a PNG or JPEG stream into a 3-channel float image. It reads
// the header first and returns ErrTooLarge, before decoding any pixels,
// when the declared geometry exceeds MaxPixels.
func Decode(r io.Reader) (*Image, error) {
	var header bytes.Buffer
	cfg, _, err := image.DecodeConfig(io.TeeReader(r, &header))
	if err != nil {
		return nil, fmt.Errorf("imgcore: decode: %w", err)
	}
	if err := checkPixels(cfg.Width, cfg.Height); err != nil {
		return nil, err
	}
	src, _, err := image.Decode(io.MultiReader(&header, r))
	if err != nil {
		return nil, fmt.Errorf("imgcore: decode: %w", err)
	}
	img := FromImage(src)
	if err := img.Validate(); err != nil {
		return nil, err
	}
	return img, nil
}

// Load reads an image file (PNG or JPEG by extension-independent sniffing).
func Load(path string) (*Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("imgcore: open %s: %w", path, err)
	}
	defer f.Close()
	img, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("imgcore: load %s: %w", path, err)
	}
	return img, nil
}

// SavePNG writes the image as a PNG file, creating parent directories as
// needed.
func (m *Image) SavePNG(path string) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("imgcore: mkdir for %s: %w", path, err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("imgcore: create %s: %w", path, err)
	}
	defer f.Close()
	if err := png.Encode(f, m.ToNRGBA()); err != nil {
		return fmt.Errorf("imgcore: encode %s: %w", path, err)
	}
	return nil
}

// SaveJPEG writes the image as a JPEG file with the given quality (1-100).
func (m *Image) SaveJPEG(path string, quality int) error {
	if err := m.Validate(); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("imgcore: mkdir for %s: %w", path, err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("imgcore: create %s: %w", path, err)
	}
	defer f.Close()
	if err := jpeg.Encode(f, m.ToNRGBA(), &jpeg.Options{Quality: quality}); err != nil {
		return fmt.Errorf("imgcore: encode %s: %w", path, err)
	}
	return nil
}

// JPEGRoundTrip encodes the image as JPEG at the given quality (1-100) and
// decodes it back, all in memory — the lossy channel an uploaded image
// passes through in many real pipelines.
func JPEGRoundTrip(m *Image, quality int) (*Image, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if quality < 1 || quality > 100 {
		return nil, fmt.Errorf("imgcore: jpeg quality %d outside [1,100]", quality)
	}
	var buf bytes.Buffer
	if err := jpeg.Encode(&buf, m.ToNRGBA(), &jpeg.Options{Quality: quality}); err != nil {
		return nil, fmt.Errorf("imgcore: jpeg encode: %w", err)
	}
	return Decode(&buf)
}

// LoadDir loads every PNG/JPEG image in a directory (non-recursive), sorted
// by filename. It is the bridge for running the pipeline on real datasets
// such as NeurIPS-2017 or Caltech-256 when they are available on disk.
func LoadDir(dir string, limit int) ([]*Image, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("imgcore: read dir %s: %w", dir, err)
	}
	var out []*Image
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		ext := strings.ToLower(filepath.Ext(e.Name()))
		if ext != ".png" && ext != ".jpg" && ext != ".jpeg" {
			continue
		}
		img, err := Load(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out = append(out, img)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out, nil
}
