// Package steg implements Decamouflage's steganalysis detection method
// (Section III-C of the paper): the attack's perturbation forms a
// near-periodic pixel comb, whose Fourier spectrum therefore contains
// replicated bright peaks at multiples of the downsampling frequency; a
// benign image's centered spectrum has a single bright center. The CSP
// metric counts those "centered spectrum points" by smoothing and
// binarizing the centered log-magnitude spectrum and counting connected
// bright components (the paper's low-pass + contour-detection step).
package steg

import (
	"context"
	"errors"
	"fmt"
	"math"

	"decamouflage/internal/filtering"
	"decamouflage/internal/fourier"
	"decamouflage/internal/imgcore"
)

// Options parameterizes the CSP computation. The paper leaves the low-pass
// radius and binarization level unspecified; these defaults were chosen on
// the calibration corpus and are swept in the X3 ablation bench.
type Options struct {
	// BinarizeThreshold is the relative intensity cut in (0,1): smoothed
	// spectrum samples at or above threshold·max become foreground.
	// Default 0.78.
	BinarizeThreshold float64
	// SmoothSigma is the Gaussian blur applied to the log spectrum before
	// binarization (the role of the paper's low-pass filter: it merges
	// speckle into stable blobs). Default 1.0; set negative to disable.
	SmoothSigma float64
	// MinArea drops connected components smaller than this many pixels.
	// Attack replicas are compact blobs whose area scales with the image,
	// while benign speckle stays a few pixels, so the default scales as
	// max(4, W·H/1600). Set explicitly (>= 1) to override.
	MinArea int
}

// DefaultOptions returns the calibrated defaults (auto-scaled MinArea).
func DefaultOptions() Options {
	return Options{BinarizeThreshold: 0.78, SmoothSigma: 1.0}
}

// Resolved returns the options with every unset field replaced by its
// default for a w×h spectrum. Resolving is idempotent, so resolved options
// are a stable identity for a CSP configuration: two Options values that
// resolve equal produce identical analyses on the same spectrum (the
// detection pipeline keys its memoized CSP stage on this).
func (o Options) Resolved(w, h int) Options { return o.withDefaults(w, h) }

func (o Options) withDefaults(w, h int) Options {
	//declint:ignore floateq zero is the unset-option sentinel, set only by literal omission
	if o.BinarizeThreshold == 0 {
		o.BinarizeThreshold = 0.78
	}
	//declint:ignore floateq zero is the unset-option sentinel, set only by literal omission
	if o.SmoothSigma == 0 {
		o.SmoothSigma = 1.0
	}
	if o.MinArea == 0 {
		o.MinArea = w * h / 1600
		if o.MinArea < 4 {
			o.MinArea = 4
		}
	}
	return o
}

// Validate checks the options that do not depend on the spectrum size: a
// binarize threshold in (0,1), a finite smoothing sigma and a MinArea that
// is not negative. Zero fields stand for their defaults and pass. Config
// loaders call it so that a bad value fails at load, not on every image.
func (o Options) Validate() error {
	o = o.withDefaults(1, 1)
	if !(o.BinarizeThreshold > 0 && o.BinarizeThreshold < 1) {
		return fmt.Errorf("steg: binarize threshold %v outside (0,1)", o.BinarizeThreshold)
	}
	if math.IsNaN(o.SmoothSigma) || math.IsInf(o.SmoothSigma, 0) {
		return fmt.Errorf("steg: smoothing sigma %v is not finite", o.SmoothSigma)
	}
	if o.MinArea < 0 {
		return fmt.Errorf("steg: negative min area %d", o.MinArea)
	}
	return nil
}

// validate checks resolved options against a w×h spectrum: Validate, plus
// a smoothing window radius int(3σ)+1 that does not exceed the spectrum's
// longer side. The window is built tap by tap, so an unchecked σ from a
// config file could demand an arbitrarily large one.
func (o Options) validate(w, h int) error {
	if err := o.Validate(); err != nil {
		return err
	}
	// int(3σ)+1 > L ⇔ 3σ >= L for an integer L, compared in float64 so
	// that a σ whose radius overflows int is rejected too.
	if o.SmoothSigma > 0 && o.SmoothSigma*3 >= float64(max(w, h)) {
		return fmt.Errorf("steg: smoothing sigma %v needs a window radius above the %dx%d spectrum's longer side", o.SmoothSigma, w, h)
	}
	return nil
}

// Analysis holds the intermediate artifacts of a CSP computation, for
// inspection and for rendering the paper's Figure 6/7 visuals.
type Analysis struct {
	// Spectrum is the centered log-magnitude spectrum (smoothed if
	// configured) normalized to [0,1].
	Spectrum []float64
	// Mask is the binarized spectrum.
	Mask []bool
	// W, H are the spectrum dimensions (the input image's).
	W, H int
	// Count is the number of connected bright components of area >=
	// MinArea — the CSP value.
	Count int
	// Areas lists the retained component areas, largest first.
	Areas []int
	// Centroids holds the retained components' centroids (x, y), paired
	// with Areas by index.
	Centroids [][2]float64
}

// CSP returns the number of centered spectrum points of img (computed on
// its luminance) under opts.
func CSP(img *imgcore.Image, opts Options) (int, error) {
	a, err := Analyze(img, opts)
	if err != nil {
		return 0, err
	}
	return a.Count, nil
}

// Analyze runs the full steganalysis pipeline and returns all artifacts.
func Analyze(img *imgcore.Image, opts Options) (*Analysis, error) {
	if err := img.Validate(); err != nil {
		return nil, err
	}
	gray := img.Gray()
	spec, err := fourier.CenteredSpectrum(gray.Pix, gray.W, gray.H)
	if err != nil {
		return nil, fmt.Errorf("steg: spectrum: %w", err)
	}
	return AnalyzeSpectrum(spec, gray.W, gray.H, opts)
}

// AnalyzeSpectrum runs the steganalysis tail — smoothing, binarization and
// component counting — on an already-computed centered log-magnitude
// spectrum (fourier.CenteredSpectrum output, normalized to [0,1]). The
// detection pipeline uses this to share one spectrum between scorers. spec
// is treated as read-only; when smoothing is disabled the returned
// Analysis.Spectrum aliases it.
func AnalyzeSpectrum(spec []float64, w, h int, opts Options) (*Analysis, error) {
	return AnalyzeSpectrumCtx(context.Background(), spec, w, h, opts)
}

// AnalyzeSpectrumCtx is AnalyzeSpectrum honouring ctx cancellation in the
// smoothing blur. Output is bit-identical to AnalyzeSpectrum's.
func AnalyzeSpectrumCtx(ctx context.Context, spec []float64, w, h int, opts Options) (*Analysis, error) {
	if w <= 0 || h <= 0 || len(spec) != w*h {
		return nil, fmt.Errorf("steg: spectrum length %d does not match %dx%d", len(spec), w, h)
	}
	opts = opts.withDefaults(w, h)
	if err := opts.validate(w, h); err != nil {
		return nil, err
	}
	if opts.SmoothSigma > 0 {
		var err error
		if spec, err = gaussianBlur2D(ctx, spec, w, h, opts.SmoothSigma); err != nil {
			return nil, err
		}
		renormalize(spec)
	}
	mask := make([]bool, len(spec))
	for i, v := range spec {
		mask[i] = v >= opts.BinarizeThreshold
	}
	labels, areas := LabelComponents(mask, w, h)
	// Per-component centroids.
	cx := make([]float64, len(areas))
	cy := make([]float64, len(areas))
	for p, l := range labels {
		if l == 0 {
			continue
		}
		cx[l-1] += float64(p % w)
		cy[l-1] += float64(p / w)
	}
	type comp struct {
		area     int
		centroid [2]float64
	}
	kept := make([]comp, 0, len(areas))
	for i, a := range areas {
		if a >= opts.MinArea {
			kept = append(kept, comp{
				area:     a,
				centroid: [2]float64{cx[i] / float64(a), cy[i] / float64(a)},
			})
		}
	}
	// Largest first, keeping area/centroid pairing.
	for i := 1; i < len(kept); i++ {
		for j := i; j > 0 && kept[j].area > kept[j-1].area; j-- {
			kept[j], kept[j-1] = kept[j-1], kept[j]
		}
	}
	a := &Analysis{
		Spectrum:  spec,
		Mask:      mask,
		W:         w,
		H:         h,
		Count:     len(kept),
		Areas:     make([]int, len(kept)),
		Centroids: make([][2]float64, len(kept)),
	}
	for i, k := range kept {
		a.Areas[i] = k.area
		a.Centroids[i] = k.centroid
	}
	return a, nil
}

// EstimateTargetSize estimates the attacker's target geometry from a
// suspected attack image. The attack comb replicates the spectrum at
// multiples of the target size; depending on the binarization level, the
// visible replicas may be the fundamental or higher harmonics (the first
// replica can merge into the central blob). The estimator sweeps several
// binarization levels, keeps only distance clusters that persist across
// levels (replicas persist; benign speckle is level-fragile), and finds
// the largest spacing dividing the cluster centers (a tolerance-aware GCD)
// — the fundamental — which it then refines by least squares over the
// distances that spacing explains (see fundamentalSpacing). ok is false when no persistent replicas exist or img
// is malformed. The sweep sets its own levels, so opts.BinarizeThreshold
// is ignored.
//
// Intended usage is forensic follow-up on images the CSP detector flagged;
// benign images with strong periodic texture can yield spurious estimates,
// so gate on the detection verdict first.
func EstimateTargetSize(img *imgcore.Image, opts Options) (w, h int, ok bool) {
	const axisTol = 3.0
	if img.Validate() != nil {
		return 0, 0, false
	}
	measureOpts := opts.withDefaults(img.W, img.H)
	type obs struct {
		dist  float64
		level int
	}
	var dxs, dys []obs
	for level, th := range []float64{0.62, 0.66, 0.70, 0.74, 0.78} {
		o := measureOpts
		o.BinarizeThreshold = th
		a, err := Analyze(img, o)
		if err != nil {
			return 0, 0, false
		}
		if a.Count < 2 {
			continue
		}
		cx := float64(a.W) / 2
		cy := float64(a.H) / 2
		// Replicas sit on the full 2-D grid (k·sx, l·sy), so every
		// off-center blob contributes its |dx| and |dy| offsets (diagonal
		// replicas often survive binarization when the on-axis fundamental
		// has merged into the central blob).
		for _, c := range a.Centroids {
			dx := math.Abs(c[0] - cx)
			dy := math.Abs(c[1] - cy)
			if dx <= axisTol && dy <= axisTol {
				continue // central blob
			}
			if dx > axisTol {
				dxs = append(dxs, obs{dx, level})
			}
			if dy > axisTol {
				dys = append(dys, obs{dy, level})
			}
		}
	}
	// Replica peaks persist across binarization levels; benign texture
	// speckle is level-fragile. Keep only distance clusters observed at
	// two or more levels and measure the spacing on the cluster centers.
	robust := func(os []obs) []float64 {
		for i := 1; i < len(os); i++ {
			for j := i; j > 0 && os[j].dist < os[j-1].dist; j-- {
				os[j], os[j-1] = os[j-1], os[j]
			}
		}
		var out []float64
		for i := 0; i < len(os); {
			j := i
			var sum float64
			levels := map[int]bool{}
			for j < len(os) && os[j].dist-os[i].dist <= 2.5 {
				sum += os[j].dist
				levels[os[j].level] = true
				j++
			}
			if len(levels) >= 2 {
				out = append(out, sum/float64(j-i))
			}
			i = j
		}
		return out
	}
	sx := fundamentalSpacing(robust(dxs))
	sy := fundamentalSpacing(robust(dys))
	if sx == 0 && sy == 0 {
		return 0, 0, false
	}
	if sx == 0 {
		sx = sy
	}
	if sy == 0 {
		sy = sx
	}
	return sx, sy, true
}

// fundamentalSpacing finds the largest integer f >= 4 such that at least
// 60% of the distances in ds lie within tolerance of a nonzero multiple of
// f (an outlier-tolerant GCD), or returns 0 when ds is empty. Off-grid
// speckle blobs would otherwise drag the estimate to spurious small
// divisors. The largest such f can sit up to the tolerance above the true
// spacing, so it is refined by least squares over the distances it
// explains, d ≈ k·f: round(Σk·d / Σk²), kept only while it is >= 4.
func fundamentalSpacing(ds []float64) int {
	if len(ds) == 0 {
		return 0
	}
	const tol = 2.5
	maxD := 0.0
	for _, d := range ds {
		if d > maxD {
			maxD = d
		}
	}
	need := (3*len(ds) + 4) / 5 // 60% coverage, rounded up
	for f := int(maxD + tol); f >= 4; f-- {
		fit := 0
		var kd, kk float64
		for _, d := range ds {
			k := math.Round(d / float64(f))
			if k >= 1 && math.Abs(d-k*float64(f)) <= tol {
				fit++
				kd += k * d
				kk += k * k
			}
		}
		if fit >= need {
			if r := int(math.Round(kd / kk)); r >= 4 {
				return r
			}
			return f
		}
	}
	return 0
}

// ErrMaskSize indicates a mask whose length does not match its geometry.
var ErrMaskSize = errors.New("steg: mask length does not match dimensions")

// LabelComponents labels 8-connected foreground components of mask
// (row-major w×h). It returns a label per pixel (0 = background, components
// numbered from 1) and the area of each component (index i holds component
// i+1's area). Malformed input yields nil results.
func LabelComponents(mask []bool, w, h int) (labels []int, areas []int) {
	if len(mask) != w*h || w <= 0 || h <= 0 {
		return nil, nil
	}
	labels = make([]int, len(mask))
	var queue []int
	next := 0
	for start, fg := range mask {
		if !fg || labels[start] != 0 {
			continue
		}
		next++
		area := 0
		queue = queue[:0]
		queue = append(queue, start)
		labels[start] = next
		for len(queue) > 0 {
			p := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			area++
			px, py := p%w, p/w
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if dx == 0 && dy == 0 {
						continue
					}
					nx, ny := px+dx, py+dy
					if nx < 0 || nx >= w || ny < 0 || ny >= h {
						continue
					}
					q := ny*w + nx
					if mask[q] && labels[q] == 0 {
						labels[q] = next
						queue = append(queue, q)
					}
				}
			}
		}
		areas = append(areas, area)
	}
	return labels, areas
}

// SpectrumImage renders an Analysis spectrum as a grayscale image scaled
// to [0,255], for artifact output (the paper's Figure 6 panels).
func (a *Analysis) SpectrumImage() *imgcore.Image {
	img := imgcore.MustNew(a.W, a.H, 1)
	for i, v := range a.Spectrum {
		img.Pix[i] = v * 255
	}
	return img
}

// MaskImage renders the binary spectrum as a black/white image (the
// paper's "binary spectrum" panel in Figure 7).
func (a *Analysis) MaskImage() *imgcore.Image {
	img := imgcore.MustNew(a.W, a.H, 1)
	for i, on := range a.Mask {
		if on {
			img.Pix[i] = 255
		}
	}
	return img
}

// gaussianBlur2D applies the CSP low-pass: the shared separable Gaussian
// (filtering.BlurPlane) with the given sigma, radius int(3σ)+1 and
// replicate borders. The result is freshly allocated (it escapes as
// Analysis.Spectrum).
func gaussianBlur2D(ctx context.Context, src []float64, w, h int, sigma float64) ([]float64, error) {
	out := make([]float64, len(src))
	if err := filtering.BlurPlane(ctx, out, src, w, h, filtering.GaussianKernel(int(sigma*3)+1, sigma)); err != nil {
		return nil, err
	}
	return out, nil
}

// renormalize rescales a non-negative field so its maximum is 1.
func renormalize(xs []float64) {
	var mx float64
	for _, v := range xs {
		if v > mx {
			mx = v
		}
	}
	if mx <= 0 {
		return
	}
	inv := 1 / mx
	for i := range xs {
		xs[i] *= inv
	}
}
