package scaling

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/parallel"
	"decamouflage/internal/testutil"
)

// Apply resamples one channel-strided signal: src has length N with the
// given stride between consecutive samples; dst receives M samples with
// its own stride. It is the per-sample definition of the operator, the
// reference resizeInto's row passes are pinned against.
func (c *Coeff) Apply(src []float64, srcStride int, dst []float64, dstStride int) {
	for i, row := range c.Rows {
		var s float64
		for k, j := range row.Idx {
			s += row.W[k] * src[j*srcStride]
		}
		dst[i*dstStride] = s
	}
}

// resizeReference is the separable resize composed from strided Apply
// calls: a vertical pass that gathers each (x, c) column at stride w·c,
// then a horizontal pass of c strided calls per row. It is the
// column-gather form resizeInto replaced, kept as its bit-exact oracle.
func resizeReference(img *imgcore.Image, horiz, vert *Coeff) *imgcore.Image {
	c := img.C
	mid := imgcore.MustNew(img.W, vert.M, c)
	out := imgcore.MustNew(horiz.M, vert.M, c)
	rowStride := img.W * c
	for x := 0; x < img.W; x++ {
		for ch := 0; ch < c; ch++ {
			off := x*c + ch
			vert.Apply(img.Pix[off:], rowStride, mid.Pix[off:], rowStride)
		}
	}
	for y := 0; y < vert.M; y++ {
		for ch := 0; ch < c; ch++ {
			horiz.Apply(mid.Pix[y*rowStride+ch:], c, out.Pix[y*horiz.M*c+ch:], c)
		}
	}
	return out
}

// TestResizeRowPassesBitEqualReference pins the row-major resize to the
// column-gather composition of Apply, bit for bit, for every algorithm,
// with and without antialiasing, under every coordinate mode, for up-,
// down- and mixed scales on non-square geometries, one and three
// channels, and one and four workers.
func TestResizeRowPassesBitEqualReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	geoms := []struct{ srcW, srcH, dstW, dstH int }{
		{31, 29, 7, 11},  // downscale, prime sides
		{9, 13, 40, 27},  // upscale
		{13, 64, 64, 13}, // mixed up/down
		{1, 7, 3, 2},     // degenerate width
		{24, 1, 5, 3},    // degenerate height
	}
	for _, alg := range Algorithms() {
		for _, aa := range []bool{false, true} {
			for _, coord := range []CoordMode{HalfPixel, AlignCorners, Asymmetric} {
				opts := Options{Algorithm: alg, Antialias: aa, Coord: coord}
				for _, g := range geoms {
					horiz, err := BuildCoeff(g.srcW, g.dstW, opts)
					if err != nil {
						t.Fatal(err)
					}
					vert, err := BuildCoeff(g.srcH, g.dstH, opts)
					if err != nil {
						t.Fatal(err)
					}
					for _, c := range []int{1, 3} {
						img := noiseImage(t, rng, g.srcW, g.srcH, c)
						want := resizeReference(img, horiz, vert)
						for _, workers := range []int{1, 4} {
							name := fmt.Sprintf("%v aa=%v %v %+v c=%d workers=%d", alg, aa, coord, g, c, workers)
							got, err := resizeWith(context.Background(), img, horiz, vert, parallel.Workers(workers), parallel.Grain(1))
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if i := testutil.FirstBitDiff(got.Pix, want.Pix); i != -1 {
								t.Fatalf("%s: sample %d: %v vs reference %v", name, i, got.Pix[i], want.Pix[i])
							}
						}
					}
				}
			}
		}
	}
}
