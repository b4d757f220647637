package filtering

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"decamouflage/internal/parallel"
	"decamouflage/internal/testutil"
)

// padClampedRef fills dst (length n+size-1) with src samples under
// replicate clamping such that the window of output i covers
// dst[i : i+size]: dst[t] = src[clamp(t+lo)] at the given stride.
func padClampedRef[T sample](dst, src []T, n, stride, lo int) {
	for t := range dst {
		j := t + lo
		if j < 0 {
			j = 0
		} else if j >= n {
			j = n - 1
		}
		dst[t] = src[j*stride]
	}
}

// slidingMinRef writes out[i] = min(padded[i : i+w]) with van
// Herk–Gil–Werman over one gathered line: a backward suffix-wedge pass
// and a forward prefix pass over blocks of w samples starting at 0.
func slidingMinRef[T sample](out, padded, wedge []T, w int) {
	p := len(padded)
	if w == 2 {
		for i := range out {
			if padded[i+1] < padded[i] {
				out[i] = padded[i+1]
			} else {
				out[i] = padded[i]
			}
		}
		return
	}
	for t := p - 1; t >= 0; t-- {
		if t == p-1 || (t+1)%w == 0 {
			wedge[t] = padded[t]
		} else if padded[t] < wedge[t+1] {
			wedge[t] = padded[t]
		} else {
			wedge[t] = wedge[t+1]
		}
	}
	var prefix T
	for t := 0; t < p; t++ {
		if t%w == 0 {
			prefix = padded[t]
		} else if padded[t] < prefix {
			prefix = padded[t]
		}
		if i := t - w + 1; i >= 0 {
			if wedge[i] < prefix {
				out[i] = wedge[i]
			} else {
				out[i] = prefix
			}
		}
	}
}

// erodeReference is the column-gather form of erode that the row passes
// replaced, kept as their oracle: every (row, channel) line is gathered
// into a clamped pad, swept by slidingMinRef and scattered, then every
// (column, channel) line of the result the same way. Each output sample
// goes through the same comparisons as in erode, so the two agree bit for
// bit even on ±0 and NaN.
func erodeReference[T sample](src []T, w, h, c, size int) []T {
	lo, _ := windowOffsets(size)
	tmp, dst := make([]T, len(src)), make([]T, len(src))
	sweep := func(out, in []T, n, stride int) {
		padded := make([]T, n+size-1)
		line := make([]T, n)
		padClampedRef(padded, in, n, stride, lo)
		slidingMinRef(line, padded, make([]T, len(padded)), size)
		for i, v := range line {
			out[i*stride] = v
		}
	}
	for y := 0; y < h; y++ {
		for ch := 0; ch < c; ch++ {
			sweep(tmp[y*w*c+ch:], src[y*w*c+ch:], w, c)
		}
	}
	for x := 0; x < w; x++ {
		for ch := 0; ch < c; ch++ {
			sweep(dst[x*c+ch:], tmp[x*c+ch:], h, w*c)
		}
	}
	return dst
}

// referenceGeoms are the erosion differential suite's geometries:
// square, non-square and prime sides, and images narrower or shorter than
// every window in it.
var referenceGeoms = [][2]int{{1, 1}, {1, 6}, {5, 1}, {3, 2}, {2, 9}, {8, 3}, {13, 7}, {31, 29}, {64, 48}}

// TestErodeBitEqualReference pins the row-major erosion to the
// column-gather sweep, bit for bit, on both lanes: windows 2–9, one and
// three channels, every geometry in referenceGeoms, one and four workers.
// The float64 samples include ±0, ±Inf and NaN, where any change in which
// comparison picks which sample would show.
func TestErodeBitEqualReference(t *testing.T) {
	rng := rand.New(rand.NewSource(69))
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	for _, wh := range referenceGeoms {
		w, h := wh[0], wh[1]
		for _, c := range []int{1, 3} {
			f := make([]float64, w*h*c)
			u := make([]uint8, w*h*c)
			for i := range f {
				f[i] = rng.Float64() * 255
				if rng.Intn(4) == 0 {
					f[i] = special[rng.Intn(len(special))]
				}
				u[i] = uint8(rng.Intn(256))
			}
			for size := 2; size <= 9; size++ {
				wantF := erodeReference(f, w, h, c, size)
				wantU := erodeReference(u, w, h, c, size)
				for _, workers := range []int{1, 4} {
					name := fmt.Sprintf("%dx%dx%d size=%d workers=%d", w, h, c, size, workers)
					popts := []parallel.Option{parallel.Workers(workers), parallel.Grain(1)}
					gotF := make([]float64, len(f))
					if err := erode(context.Background(), gotF, make([]float64, len(f)), f, w, h, c, size, popts...); err != nil {
						t.Fatalf("%s float64: %v", name, err)
					}
					if i := testutil.FirstBitDiff(gotF, wantF); i != -1 {
						t.Fatalf("%s float64: sample %d: %v vs reference %v", name, i, gotF[i], wantF[i])
					}
					gotU := make([]uint8, len(u))
					if err := erode(context.Background(), gotU, make([]uint8, len(u)), u, w, h, c, size, popts...); err != nil {
						t.Fatalf("%s uint8: %v", name, err)
					}
					for i := range gotU {
						if gotU[i] != wantU[i] {
							t.Fatalf("%s uint8: sample %d: %d vs reference %d", name, i, gotU[i], wantU[i])
						}
					}
				}
			}
		}
	}
}
