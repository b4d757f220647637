package qpsolve

import (
	"fmt"
	"math"
)

// solveProjGrad minimizes ‖x−x₀‖²/n + λ·Σ hinge(|w·x−t|−ε)² by projected
// gradient descent with a fixed step and box projection. It is slower than
// POCS, and the tests use it as an independent solution path to check
// SolvePOCS against.
func solveProjGrad(p *Problem, x0 []float64, opts Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if len(x0) != p.N {
		return nil, fmt.Errorf("%w: %d vs %d", ErrBadStart, len(x0), p.N)
	}
	x := append([]float64(nil), x0...)
	clampAll(x, p.Box)

	const lambda = 50.0
	grad := make([]float64, p.N)
	// Lipschitz-ish step size: depends on constraint overlap; a
	// conservative constant works for the attack's sparse constraints.
	step := 0.4 / lambda

	res := &Result{}
	for iter := 1; iter <= opts.MaxSweeps; iter++ {
		res.Sweeps = iter
		for i := range grad {
			grad[i] = (x[i] - x0[i]) * 2 / float64(p.N)
		}
		maxViol := 0.0
		for _, c := range p.Constraints {
			var s float64
			for k, j := range c.Idx {
				s += c.W[k] * x[j]
			}
			var excess float64
			switch {
			case s > c.Target+c.Eps:
				excess = s - (c.Target + c.Eps)
			case s < c.Target-c.Eps:
				excess = s - (c.Target - c.Eps)
			default:
				continue
			}
			if v := math.Abs(excess); v > maxViol {
				maxViol = v
			}
			g := 2 * lambda * excess
			for k, j := range c.Idx {
				grad[j] += g * c.W[k]
			}
		}
		if maxViol <= opts.Tol {
			res.Converged = true
			break
		}
		for i := range x {
			nv := x[i] - step*grad[i]
			if nv < p.Box.Lo {
				nv = p.Box.Lo
			} else if nv > p.Box.Hi {
				nv = p.Box.Hi
			}
			x[i] = nv
		}
	}
	res.X = x
	res.MaxViolation = maxViolation(p, x)
	if res.MaxViolation <= opts.Tol {
		res.Converged = true
	}
	return res, nil
}
