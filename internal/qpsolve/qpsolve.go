// Package qpsolve solves the box-constrained quadratic feasibility problems
// at the core of the image-scaling attack:
//
//	find x minimizing ‖x − x₀‖²
//	subject to  |wᵢ·x − tᵢ| ≤ εᵢ  for every constraint i
//	and         lo ≤ x ≤ hi      elementwise.
//
// SolvePOCS performs cyclic projections onto the convex constraint sets
// (projected Kaczmarz / POCS): each violated constraint is fixed by the
// minimum-norm update along its own weight vector, followed by a box
// clamp. Starting from x₀ and using minimum-norm projections, the iterate
// stays close to x₀, which is exactly the attack's objective. The tests
// cross-check it against an independent projected-gradient solver
// (projgrad_test.go).
package qpsolve

import (
	"errors"
	"fmt"
	"math"
)

// Constraint demands |W·x[Idx] − Target| ≤ Eps. Idx and W must have equal
// nonzero length and all indices must be in range for the problem.
type Constraint struct {
	Idx    []int
	W      []float64
	Target float64
	Eps    float64
}

// Box is an elementwise variable bound.
type Box struct {
	Lo, Hi float64
}

// Problem is a feasibility instance over N variables.
type Problem struct {
	N           int
	Constraints []Constraint
	Box         Box
}

// Validate checks structural consistency of the problem.
func (p *Problem) Validate() error {
	if p.N <= 0 {
		return fmt.Errorf("qpsolve: N must be positive, got %d", p.N)
	}
	if p.Box.Lo > p.Box.Hi {
		return fmt.Errorf("qpsolve: empty box [%v,%v]", p.Box.Lo, p.Box.Hi)
	}
	for i, c := range p.Constraints {
		if len(c.Idx) == 0 || len(c.Idx) != len(c.W) {
			return fmt.Errorf("qpsolve: constraint %d malformed (%d idx, %d w)", i, len(c.Idx), len(c.W))
		}
		if c.Eps < 0 {
			return fmt.Errorf("qpsolve: constraint %d has negative eps %v", i, c.Eps)
		}
		for _, j := range c.Idx {
			if j < 0 || j >= p.N {
				return fmt.Errorf("qpsolve: constraint %d index %d out of range [0,%d)", i, j, p.N)
			}
		}
	}
	return nil
}

// Options tunes the solvers.
type Options struct {
	// MaxSweeps bounds the number of full passes over all constraints
	// (POCS) or gradient steps (projected gradient). Default 100.
	MaxSweeps int
	// Tol is the additional violation slack accepted at convergence: the
	// solver stops once every constraint is within Eps+Tol. Default 1e-6.
	Tol float64
	// Relax is the POCS relaxation factor in (0, 2]; 1 is the exact
	// projection. Values slightly above 1 can speed convergence on
	// heavily overlapping constraints. Default 1.
	Relax float64
}

func (o Options) withDefaults() Options {
	if o.MaxSweeps == 0 {
		o.MaxSweeps = 100
	}
	//declint:ignore floateq zero is the unset-option sentinel, set only by literal omission
	if o.Tol == 0 {
		o.Tol = 1e-6
	}
	//declint:ignore floateq zero is the unset-option sentinel, set only by literal omission
	if o.Relax == 0 {
		o.Relax = 1
	}
	return o
}

func (o Options) validate() error {
	if o.MaxSweeps < 0 {
		return fmt.Errorf("qpsolve: MaxSweeps %d < 0", o.MaxSweeps)
	}
	if o.Relax < 0 || o.Relax > 2 {
		return fmt.Errorf("qpsolve: Relax %v outside (0,2]", o.Relax)
	}
	if o.Tol < 0 {
		return fmt.Errorf("qpsolve: Tol %v < 0", o.Tol)
	}
	return nil
}

// Result reports the solver outcome.
type Result struct {
	X            []float64
	Sweeps       int
	MaxViolation float64 // max over constraints of (|w·x − t| − eps), clamped at 0
	Converged    bool
}

// ErrBadStart indicates an x0 whose length does not match the problem.
var ErrBadStart = errors.New("qpsolve: x0 length does not match problem size")

// SolvePOCS runs cyclic projections onto constraints with box clamping.
func SolvePOCS(p *Problem, x0 []float64, opts Options) (*Result, error) {
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

	// Precompute squared norms of constraint weight vectors.
	norms := make([]float64, len(p.Constraints))
	for i, c := range p.Constraints {
		var n2 float64
		for _, w := range c.W {
			n2 += w * w
		}
		norms[i] = n2
	}

	res := &Result{}
	for sweep := 1; sweep <= opts.MaxSweeps; sweep++ {
		res.Sweeps = sweep
		maxViol := 0.0
		for i, c := range p.Constraints {
			//declint:ignore floateq an exactly-zero row norm marks a vacuous constraint
			if norms[i] == 0 {
				continue
			}
			var s float64
			for k, j := range c.Idx {
				s += c.W[k] * x[j]
			}
			var delta float64
			switch {
			case s > c.Target+c.Eps:
				delta = (c.Target + c.Eps) - s
			case s < c.Target-c.Eps:
				delta = (c.Target - c.Eps) - s
			default:
				continue
			}
			if v := math.Abs(delta); v > maxViol {
				maxViol = v
			}
			step := opts.Relax * delta / norms[i]
			for k, j := range c.Idx {
				nv := x[j] + step*c.W[k]
				if nv < p.Box.Lo {
					nv = p.Box.Lo
				} else if nv > p.Box.Hi {
					nv = p.Box.Hi
				}
				x[j] = nv
			}
		}
		if maxViol <= opts.Tol {
			res.Converged = true
			break
		}
	}
	res.X = x
	res.MaxViolation = maxViolation(p, x)
	if res.MaxViolation <= opts.Tol {
		res.Converged = true
	}
	return res, nil
}

// maxViolation returns the largest amount by which x violates any
// constraint band, or 0 if feasible.
func maxViolation(p *Problem, x []float64) float64 {
	var mx float64
	for _, c := range p.Constraints {
		var s float64
		for k, j := range c.Idx {
			s += c.W[k] * x[j]
		}
		v := math.Abs(s-c.Target) - c.Eps
		if v > mx {
			mx = v
		}
	}
	return mx
}

func clampAll(x []float64, b Box) {
	for i, v := range x {
		if v < b.Lo {
			x[i] = b.Lo
		} else if v > b.Hi {
			x[i] = b.Hi
		}
	}
}
