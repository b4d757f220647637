// Package defense implements the *prevention* baselines of Quiring et al.
// (USENIX Security 2020) that the paper positions Decamouflage against:
// robust scaling algorithms and image reconstruction. They are included so
// the X4 experiment can compare detection (Decamouflage) with prevention
// (these) on the same attacks.
package defense

import (
	"errors"
	"fmt"
	"sort"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/scaling"
)

// ErrNilScaler indicates a missing scaler argument.
var ErrNilScaler = errors.New("defense: scaler is required")

// RobustScaler returns a scaler with the same geometry as the given one but
// using an attack-resistant algorithm: area interpolation, whose kernel
// covers every source pixel so no slack pixels exist for an attacker.
func RobustScaler(s *scaling.Scaler) (*scaling.Scaler, error) {
	if s == nil {
		return nil, ErrNilScaler
	}
	srcW, srcH := s.SrcSize()
	dstW, dstH := s.DstSize()
	return scaling.NewScaler(srcW, srcH, dstW, dstH, scaling.Options{Algorithm: scaling.Area})
}

func defaultWindow(s *scaling.Scaler) int {
	srcW, srcH := s.SrcSize()
	sx := (srcW + s.Horizontal().M - 1) / s.Horizontal().M
	sy := (srcH + s.Vertical().M - 1) / s.Vertical().M
	w := sx
	if sy > w {
		w = sy
	}
	if w < 2 {
		w = 2
	}
	return w
}

// MedianReconstruct implements Quiring et al.'s reconstruction defense:
// every source pixel the vulnerable scaler actually samples is replaced by
// the median of its non-sampled neighbors, cleansing any embedded target
// pixels before the image reaches the scaler. The window parameter sets the
// neighborhood radius; 0 picks radius = ceil(scale factor).
func MedianReconstruct(img *imgcore.Image, s *scaling.Scaler, window int) (*imgcore.Image, error) {
	if s == nil {
		return nil, ErrNilScaler
	}
	if err := img.Validate(); err != nil {
		return nil, err
	}
	srcW, srcH := s.SrcSize()
	if img.W != srcW || img.H != srcH {
		return nil, fmt.Errorf("defense: image %v does not match scaler source %dx%d", img, srcW, srcH)
	}
	useX := s.Horizontal().SourceUse()
	useY := s.Vertical().SourceUse()
	if window <= 0 {
		window = defaultWindow(s)
	}
	out := img.Clone()
	buf := make([]float64, 0, (2*window+1)*(2*window+1))
	for y := 0; y < img.H; y++ {
		//declint:ignore floateq the mask holds exact 0/1 values by construction
		if useY[y] == 0 {
			continue
		}
		for x := 0; x < img.W; x++ {
			//declint:ignore floateq the mask holds exact 0/1 values by construction
			if useX[x] == 0 {
				continue
			}
			// (x,y) is sampled by the scaler: reconstruct it per channel
			// from non-sampled neighbors.
			for c := 0; c < img.C; c++ {
				buf = buf[:0]
				for dy := -window; dy <= window; dy++ {
					yy := y + dy
					if yy < 0 || yy >= img.H {
						continue
					}
					for dx := -window; dx <= window; dx++ {
						xx := x + dx
						if xx < 0 || xx >= img.W {
							continue
						}
						//declint:ignore floateq the mask holds exact 0/1 values by construction
						if useY[yy] != 0 && useX[xx] != 0 {
							continue // skip other sampled pixels
						}
						buf = append(buf, img.At(xx, yy, c))
					}
				}
				if len(buf) == 0 {
					continue // fully sampled neighborhood; leave as-is
				}
				sort.Float64s(buf)
				out.Set(x, y, c, buf[len(buf)/2])
			}
		}
	}
	return out, nil
}
