// Package attack implements the image-scaling attack of Xiao et al.
// (USENIX Security 2019): given a source image O and a target image T, it
// crafts an attack image A = O + Δ that is visually indistinguishable from
// O yet downsamples to (approximately) T.
//
// The attack is expressed through the scaling operator's coefficient
// matrices (scale(X) = L·X·Rᵀ): every output pixel is a known sparse
// weighted sum of source pixels, so the paper's quadratic program
//
//	min ‖Δ‖²  s.t.  ‖scale(O+Δ) − T‖∞ ≤ ε,  0 ≤ O+Δ ≤ 255
//
// becomes a sparse box-constrained feasibility problem solved per channel
// with the POCS/Kaczmarz solver in internal/qpsolve.
package attack

import (
	"errors"
	"fmt"
	"math"

	"decamouflage/internal/imgcore"
	"decamouflage/internal/metrics"
	"decamouflage/internal/qpsolve"
	"decamouflage/internal/scaling"
)

// Config parameterizes the attack.
type Config struct {
	// Scaler defines the scaling function under attack (algorithm and
	// geometry). Required.
	Scaler *scaling.Scaler
	// Eps is the allowed L∞ deviation of the downscaled attack image from
	// the target, in 8-bit pixel units. Default 1.
	Eps float64
	// MaxSweeps bounds the POCS solver's sweeps. Default 200.
	MaxSweeps int
	// SkipQuantize leaves the attack image in floating point. By default
	// the result is rounded to 8-bit levels — what a real attacker must
	// ship — with the quantization error budgeted inside Eps.
	SkipQuantize bool
}

// Result describes a crafted attack image and its quality.
type Result struct {
	// Attack is the crafted image A = O + Δ, same geometry as the source.
	Attack *imgcore.Image
	// Sweeps is the total solver sweeps across channels.
	Sweeps int
	// Converged reports whether every channel's solve met its tolerance.
	Converged bool
	// MaxViolation is the worst L∞ deviation of scale(A) from T across
	// channels, measured on the final (possibly quantized) attack image.
	MaxViolation float64
	// PerturbationL2 is ‖Δ‖₂, the attack's objective value.
	PerturbationL2 float64
	// PerturbationMSE is MSE(A, O) — the visual damage to the source.
	PerturbationMSE float64
	// DownscaledMSE is MSE(scale(A), T) — how exactly the target is hit.
	DownscaledMSE float64
}

// Common errors.
var (
	ErrNilScaler     = errors.New("attack: Config.Scaler is required")
	ErrShapeMismatch = errors.New("attack: image geometry does not match scaler")
	ErrChannels      = errors.New("attack: source and target must have the same channel count")
)

func (c Config) withDefaults() Config {
	//declint:ignore floateq zero is the unset-option sentinel, set only by literal omission
	if c.Eps == 0 {
		c.Eps = 1
	}
	if c.MaxSweeps == 0 {
		c.MaxSweeps = 200
	}
	return c
}

func (c Config) validate() error {
	if c.Scaler == nil {
		return ErrNilScaler
	}
	if c.Eps < 0 {
		return fmt.Errorf("attack: negative eps %v", c.Eps)
	}
	return nil
}

// Craft builds the attack image embedding target into source under cfg.
// source must match the scaler's source geometry and target its destination
// geometry.
func Craft(source, target *imgcore.Image, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := source.Validate(); err != nil {
		return nil, fmt.Errorf("attack: source: %w", err)
	}
	if err := target.Validate(); err != nil {
		return nil, fmt.Errorf("attack: target: %w", err)
	}
	srcW, srcH := cfg.Scaler.SrcSize()
	dstW, dstH := cfg.Scaler.DstSize()
	if source.W != srcW || source.H != srcH {
		return nil, fmt.Errorf("%w: source %v, scaler wants %dx%d", ErrShapeMismatch, source, srcW, srcH)
	}
	if target.W != dstW || target.H != dstH {
		return nil, fmt.Errorf("%w: target %v, scaler wants %dx%d", ErrShapeMismatch, target, dstW, dstH)
	}
	if source.C != target.C {
		return nil, fmt.Errorf("%w: %d vs %d", ErrChannels, source.C, target.C)
	}

	// Budget quantization error inside eps: rounding the attack image
	// moves each output by at most 0.5 (row weights sum to 1 in absolute
	// value for non-negative kernels; slightly more for cubic/lanczos, so
	// keep a conservative 0.6 margin when possible).
	solveEps := cfg.Eps
	if !cfg.SkipQuantize {
		margin := 0.6
		if solveEps > margin {
			solveEps -= margin
		} else {
			solveEps = solveEps / 2
		}
	}

	vert := cfg.Scaler.Vertical()
	horiz := cfg.Scaler.Horizontal()

	attackImg := source.Clone()
	res := &Result{}
	allConverged := true

	for c := 0; c < source.C; c++ {
		prob := buildProblem(vert, horiz, target, c, solveEps, srcW, srcH)
		x0 := channelVector(source, c)
		sr, err := qpsolve.SolvePOCS(prob, x0, qpsolve.Options{MaxSweeps: cfg.MaxSweeps, Tol: 0.05})
		if err != nil {
			return nil, fmt.Errorf("attack: channel %d: %w", c, err)
		}
		res.Sweeps += sr.Sweeps
		if !sr.Converged {
			allConverged = false
		}
		writeChannel(attackImg, c, sr.X)
	}
	if !cfg.SkipQuantize {
		attackImg.Quantize8()
	}
	res.Attack = attackImg
	res.Converged = allConverged

	if err := res.measure(source, target, cfg); err != nil {
		return nil, err
	}
	return res, nil
}

// measure fills the quality fields of the result from the final image.
func (r *Result) measure(source, target *imgcore.Image, cfg Config) error {
	var l2 float64
	for i := range source.Pix {
		d := r.Attack.Pix[i] - source.Pix[i]
		l2 += d * d
	}
	r.PerturbationL2 = math.Sqrt(l2)
	pm, err := metrics.MSE(r.Attack, source)
	if err != nil {
		return fmt.Errorf("attack: perturbation MSE: %w", err)
	}
	r.PerturbationMSE = pm

	down, err := cfg.Scaler.Resize(r.Attack)
	if err != nil {
		return fmt.Errorf("attack: verify downscale: %w", err)
	}
	dm, err := metrics.MSE(down, target)
	if err != nil {
		return fmt.Errorf("attack: downscaled MSE: %w", err)
	}
	r.DownscaledMSE = dm
	var linf float64
	for i := range down.Pix {
		if d := math.Abs(down.Pix[i] - target.Pix[i]); d > linf {
			linf = d
		}
	}
	r.MaxViolation = linf
	return nil
}

// buildProblem assembles the sparse constraint system for one channel.
func buildProblem(vert, horiz *scaling.Coeff, target *imgcore.Image, ch int, eps float64, srcW, srcH int) *qpsolve.Problem {
	dstW, dstH := horiz.M, vert.M
	prob := &qpsolve.Problem{
		N:           srcW * srcH,
		Box:         qpsolve.Box{Lo: 0, Hi: imgcore.MaxPixel},
		Constraints: make([]qpsolve.Constraint, 0, dstW*dstH),
	}
	for i := 0; i < dstH; i++ {
		vr := vert.Rows[i]
		for j := 0; j < dstW; j++ {
			hr := horiz.Rows[j]
			n := len(vr.Idx) * len(hr.Idx)
			con := qpsolve.Constraint{
				Idx:    make([]int, 0, n),
				W:      make([]float64, 0, n),
				Target: target.At(j, i, ch),
				Eps:    eps,
			}
			for a, sy := range vr.Idx {
				base := sy * srcW
				wv := vr.W[a]
				for b, sx := range hr.Idx {
					con.Idx = append(con.Idx, base+sx)
					con.W = append(con.W, wv*hr.W[b])
				}
			}
			prob.Constraints = append(prob.Constraints, con)
		}
	}
	return prob
}

func channelVector(img *imgcore.Image, c int) []float64 {
	out := make([]float64, img.W*img.H)
	for i := 0; i < img.W*img.H; i++ {
		out[i] = img.Pix[i*img.C+c]
	}
	return out
}

func writeChannel(img *imgcore.Image, c int, x []float64) {
	for i := 0; i < img.W*img.H; i++ {
		img.Pix[i*img.C+c] = x[i]
	}
}

// SuccessReport quantifies whether an image still functions as an attack:
// how close its downscale lands to the intended target. It backs the
// substitute for the paper's commercial-classifier check (Table 9): an
// attack that escapes detection but whose downscale has drifted from the
// target has lost its purpose.
type SuccessReport struct {
	// LInf is the max absolute deviation of scale(A) from T.
	LInf float64
	// MSE is MSE(scale(A), T).
	MSE float64
	// SSIM is SSIM(scale(A), T).
	SSIM float64
	// Effective reports whether the attack still realizes its target under
	// the oracle's criteria (SSIM ≥ 0.9 or LInf ≤ 8).
	Effective bool
}

// Success evaluates the attack-effectiveness oracle for image a and
// intended target, using the given scaler.
func Success(a, target *imgcore.Image, scaler *scaling.Scaler) (*SuccessReport, error) {
	if scaler == nil {
		return nil, ErrNilScaler
	}
	down, err := scaler.Resize(a)
	if err != nil {
		return nil, fmt.Errorf("attack: success oracle downscale: %w", err)
	}
	mse, err := metrics.MSE(down, target)
	if err != nil {
		return nil, fmt.Errorf("attack: success oracle MSE: %w", err)
	}
	ssim, err := metrics.SSIM(down, target)
	if err != nil {
		return nil, fmt.Errorf("attack: success oracle SSIM: %w", err)
	}
	var linf float64
	for i := range down.Pix {
		if d := math.Abs(down.Pix[i] - target.Pix[i]); d > linf {
			linf = d
		}
	}
	return &SuccessReport{
		LInf:      linf,
		MSE:       mse,
		SSIM:      ssim,
		Effective: ssim >= 0.9 || linf <= 8,
	}, nil
}
