package scaling

import (
	"errors"
	"fmt"
)

// ErrBadSize indicates a non-positive source or destination length.
var ErrBadSize = errors.New("scaling: sizes must be positive")

// Row is one row of a coefficient matrix: the output sample is the dot
// product of W with the source samples at Idx. Idx values are unique,
// sorted, in-range source indices.
type Row struct {
	Idx []int
	W   []float64
}

// Coeff is a sparse 1-D resampling operator mapping a source signal of
// length N onto a destination of length M: dst[i] = Σ_k Rows[i].W[k] *
// src[Rows[i].Idx[k]]. Rows are weight-normalized to sum to 1, so constant
// signals are preserved exactly.
//
// A Coeff is immutable after construction. Instances returned by CoeffFor
// are shared across callers — read Rows/Idx/W freely, never write them.
type Coeff struct {
	N, M int
	Rows []Row
}

// CoordMode selects the source-coordinate convention, mirroring the modes
// found across OpenCV, TensorFlow and ONNX. The convention decides WHICH
// source pixels a downscaler samples — and therefore where an attacker
// must embed target pixels — so cross-convention experiments need it
// explicit.
type CoordMode int

// Coordinate conventions.
const (
	// HalfPixel maps destination i to source (i+0.5)·scale − 0.5 — the
	// OpenCV default and TF2 behaviour. Default.
	HalfPixel CoordMode = iota + 1
	// AlignCorners maps i to i·(n−1)/(m−1), pinning the first and last
	// samples to the image corners (TF1's align_corners=True).
	AlignCorners
	// Asymmetric maps i to i·scale (ONNX "asymmetric", TF1 legacy).
	Asymmetric
)

// String implements fmt.Stringer.
func (c CoordMode) String() string {
	switch c {
	case HalfPixel:
		return "half-pixel"
	case AlignCorners:
		return "align-corners"
	case Asymmetric:
		return "asymmetric"
	default:
		return fmt.Sprintf("CoordMode(%d)", int(c))
	}
}

// Options configures a resampling operator.
type Options struct {
	// Algorithm is the interpolation method. Required.
	Algorithm Algorithm
	// Antialias widens the kernel by the scale factor when downscaling
	// (Pillow-style), which destroys the sparse pixel dependence the
	// image-scaling attack needs. Off by default, matching the
	// OpenCV/TensorFlow semantics attacked in the paper. Area scaling is
	// inherently antialiased regardless of this flag.
	Antialias bool
	// Coord selects the source-coordinate convention; zero value is
	// HalfPixel.
	Coord CoordMode
}

// srcCenter returns the source coordinate of destination sample i under
// the configured convention.
func (o Options) srcCenter(i, n, m int, scale float64) (float64, error) {
	switch o.Coord {
	case 0, HalfPixel:
		return (float64(i)+0.5)*scale - 0.5, nil
	case AlignCorners:
		if m == 1 {
			return float64(n-1) / 2, nil
		}
		return float64(i) * float64(n-1) / float64(m-1), nil
	case Asymmetric:
		return float64(i) * scale, nil
	default:
		return 0, fmt.Errorf("scaling: unknown coordinate mode %d", int(o.Coord))
	}
}

// BuildCoeff constructs the 1-D coefficient operator for resampling a
// signal of length n to length m using the given options. It always builds
// fresh; hot paths should prefer CoeffFor, which memoizes the result in
// the bounded package cache.
//
// Source coordinates follow the half-pixel-center convention used by
// OpenCV: the source position of destination sample i is
// (i + 0.5)·(n/m) − 0.5. Out-of-range taps are clamped to the border
// (replicate padding) by folding their weight into the edge samples.
func BuildCoeff(n, m int, opts Options) (*Coeff, error) {
	if n <= 0 || m <= 0 {
		return nil, fmt.Errorf("%w: n=%d m=%d", ErrBadSize, n, m)
	}
	scale := float64(n) / float64(m)
	if opts.Algorithm == Nearest {
		return nearestCoeff(n, m, scale, opts)
	}
	k, err := kernelFor(opts.Algorithm)
	if err != nil {
		return nil, err
	}
	// Kernel scale: widened for antialiased downscale and always for Area.
	filterScale := 1.0
	if (opts.Antialias || opts.Algorithm == Area) && scale > 1 {
		filterScale = scale
	}
	support := k.support * filterScale
	c := &Coeff{N: n, M: m, Rows: make([]Row, m)}
	for i := 0; i < m; i++ {
		center, err := opts.srcCenter(i, n, m, scale)
		if err != nil {
			return nil, err
		}
		lo := int(fastFloor(center - support + 1e-9))
		hi := int(fastCeil(center + support - 1e-9))
		// Accumulate weights with border clamping: taps outside [0,n)
		// contribute to the nearest edge sample.
		acc := make(map[int]float64, hi-lo+1)
		var sum float64
		for j := lo; j <= hi; j++ {
			w := k.f((float64(j) - center) / filterScale)
			//declint:ignore floateq exact-zero taps are dropped; any nonzero weight is kept bit-exactly
			if w == 0 {
				continue
			}
			jj := j
			if jj < 0 {
				jj = 0
			} else if jj >= n {
				jj = n - 1
			}
			acc[jj] += w
			sum += w
		}
		//declint:ignore floateq only an exactly-zero weight sum is unnormalizable
		if sum == 0 || len(acc) == 0 {
			// Degenerate kernel placement; fall back to nearest tap.
			jj := clampIndex(int(fastFloor(center+0.5)), n)
			acc = map[int]float64{jj: 1}
			sum = 1
		}
		row := Row{Idx: make([]int, 0, len(acc)), W: make([]float64, 0, len(acc))}
		for j := 0; j < n; j++ {
			if w, ok := acc[j]; ok {
				row.Idx = append(row.Idx, j)
				row.W = append(row.W, w/sum)
			}
		}
		c.Rows[i] = row
	}
	return c, nil
}

func nearestCoeff(n, m int, scale float64, opts Options) (*Coeff, error) {
	c := &Coeff{N: n, M: m, Rows: make([]Row, m)}
	for i := 0; i < m; i++ {
		center, err := opts.srcCenter(i, n, m, scale)
		if err != nil {
			return nil, err
		}
		j := clampIndex(int(fastFloor(center+0.5)), n)
		c.Rows[i] = Row{Idx: []int{j}, W: []float64{1}}
	}
	return c, nil
}

func clampIndex(j, n int) int {
	if j < 0 {
		return 0
	}
	if j >= n {
		return n - 1
	}
	return j
}

func fastFloor(x float64) float64 {
	f := float64(int(x))
	//declint:ignore floateq integer-valued floats compare exactly by IEEE-754 construction
	if x < 0 && f != x {
		f--
	}
	return f
}

func fastCeil(x float64) float64 {
	f := float64(int(x))
	//declint:ignore floateq integer-valued floats compare exactly by IEEE-754 construction
	if x > 0 && f != x {
		f++
	}
	return f
}

// MaxTaps returns the largest number of source taps any row uses — the
// effective kernel footprint.
func (c *Coeff) MaxTaps() int {
	mx := 0
	for _, r := range c.Rows {
		if len(r.Idx) > mx {
			mx = len(r.Idx)
		}
	}
	return mx
}

// SourceUse returns, for each source index, how much total absolute weight
// the operator assigns to it. Indices with zero use are the "slack" pixels
// an image-scaling attack can modify without affecting the output.
func (c *Coeff) SourceUse() []float64 {
	use := make([]float64, c.N)
	for _, r := range c.Rows {
		for k, j := range r.Idx {
			w := r.W[k]
			if w < 0 {
				w = -w
			}
			use[j] += w
		}
	}
	return use
}
