package qpsolve

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"decamouflage/internal/testutil"
)

func TestProblemValidate(t *testing.T) {
	tests := []struct {
		name    string
		p       Problem
		wantErr bool
	}{
		{"ok", Problem{N: 3, Box: Box{0, 255}, Constraints: []Constraint{{Idx: []int{0, 1}, W: []float64{0.5, 0.5}, Target: 10, Eps: 1}}}, false},
		{"zero n", Problem{N: 0, Box: Box{0, 1}}, true},
		{"empty box", Problem{N: 2, Box: Box{5, 1}}, true},
		{"empty constraint", Problem{N: 2, Box: Box{0, 1}, Constraints: []Constraint{{}}}, true},
		{"len mismatch", Problem{N: 2, Box: Box{0, 1}, Constraints: []Constraint{{Idx: []int{0}, W: []float64{1, 2}}}}, true},
		{"bad index", Problem{N: 2, Box: Box{0, 1}, Constraints: []Constraint{{Idx: []int{5}, W: []float64{1}}}}, true},
		{"neg eps", Problem{N: 2, Box: Box{0, 1}, Constraints: []Constraint{{Idx: []int{0}, W: []float64{1}, Eps: -1}}}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestSolvePOCSSingleConstraint(t *testing.T) {
	p := &Problem{
		N:   2,
		Box: Box{0, 255},
		Constraints: []Constraint{
			{Idx: []int{0, 1}, W: []float64{0.5, 0.5}, Target: 100, Eps: 0.5},
		},
	}
	res, err := SolvePOCS(p, []float64{0, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged: %+v", res)
	}
	s := 0.5*res.X[0] + 0.5*res.X[1]
	if math.Abs(s-100) > 0.5+1e-6 {
		t.Errorf("constraint value = %v", s)
	}
	// Minimum-norm: both variables move equally.
	if math.Abs(res.X[0]-res.X[1]) > 1e-9 {
		t.Errorf("projection not minimum-norm: %v", res.X)
	}
}

func TestSolvePOCSRespectsBox(t *testing.T) {
	p := &Problem{
		N:   1,
		Box: Box{0, 255},
		Constraints: []Constraint{
			{Idx: []int{0}, W: []float64{1}, Target: 400, Eps: 0}, // infeasible
		},
	}
	res, err := SolvePOCS(p, []float64{10}, Options{MaxSweeps: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Error("converged on infeasible problem")
	}
	if !testutil.BitEqual(res.X[0], 255) {
		t.Errorf("x = %v, want clamped to 255", res.X[0])
	}
	if res.MaxViolation < 144 {
		t.Errorf("MaxViolation = %v, want >= 145-eps", res.MaxViolation)
	}
}

func TestSolvePOCSAlreadyFeasible(t *testing.T) {
	p := &Problem{
		N:   2,
		Box: Box{0, 255},
		Constraints: []Constraint{
			{Idx: []int{0}, W: []float64{1}, Target: 10, Eps: 5},
		},
	}
	x0 := []float64{12, 99}
	res, err := SolvePOCS(p, x0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Sweeps != 1 {
		t.Errorf("feasible start: %+v", res)
	}
	if !testutil.BitEqual(res.X[0], 12) || !testutil.BitEqual(res.X[1], 99) {
		t.Errorf("feasible start moved: %v", res.X)
	}
}

func TestSolvePOCSZeroWeightConstraintIgnored(t *testing.T) {
	p := &Problem{
		N:   1,
		Box: Box{0, 255},
		Constraints: []Constraint{
			{Idx: []int{0}, W: []float64{0}, Target: 50, Eps: 0},
		},
	}
	res, err := SolvePOCS(p, []float64{1}, Options{MaxSweeps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.BitEqual(res.X[0], 1) {
		t.Errorf("zero-weight constraint moved x: %v", res.X)
	}
}

func TestSolverErrors(t *testing.T) {
	p := &Problem{N: 2, Box: Box{0, 1}}
	if _, err := SolvePOCS(p, []float64{1}, Options{}); err == nil {
		t.Error("POCS bad x0 length = nil error")
	}
	if _, err := solveProjGrad(p, []float64{1}, Options{}); err == nil {
		t.Error("ProjGrad bad x0 length = nil error")
	}
	bad := &Problem{N: 0}
	if _, err := SolvePOCS(bad, nil, Options{}); err == nil {
		t.Error("POCS invalid problem = nil error")
	}
	if _, err := SolvePOCS(p, []float64{1, 2}, Options{Relax: 3}); err == nil {
		t.Error("POCS bad relax = nil error")
	}
	if _, err := SolvePOCS(p, []float64{1, 2}, Options{Tol: -1}); err == nil {
		t.Error("POCS negative tol = nil error")
	}
}

// buildRandomFeasible constructs a random sparse problem that is feasible
// by construction: constraints are bands around the projection of a random
// feasible point.
func buildRandomFeasible(rng *rand.Rand, n, m int) (*Problem, []float64) {
	feasible := make([]float64, n)
	for i := range feasible {
		feasible[i] = rng.Float64() * 255
	}
	p := &Problem{N: n, Box: Box{0, 255}}
	for i := 0; i < m; i++ {
		k := rng.Intn(3) + 1
		idx := make([]int, 0, k)
		seen := map[int]bool{}
		for len(idx) < k {
			j := rng.Intn(n)
			if !seen[j] {
				seen[j] = true
				idx = append(idx, j)
			}
		}
		w := make([]float64, k)
		var s, t float64
		for kk := range w {
			w[kk] = rng.Float64()
			s += w[kk]
		}
		for kk := range w {
			w[kk] /= s
			t += w[kk] * feasible[idx[kk]]
		}
		p.Constraints = append(p.Constraints, Constraint{Idx: idx, W: w, Target: t, Eps: 1})
	}
	return p, feasible
}

// Property: POCS converges on feasible problems and the solution satisfies
// every constraint within eps+tol and the box.
func TestPOCSFeasibleConvergenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		p, _ := buildRandomFeasible(rng, 40, 25)
		x0 := make([]float64, p.N)
		for i := range x0 {
			x0[i] = rng.Float64() * 255
		}
		res, err := SolvePOCS(p, x0, Options{MaxSweeps: 5000, Tol: 1e-4})
		if err != nil || !res.Converged {
			return false
		}
		for _, v := range res.X {
			if v < -1e-12 || v > 255+1e-12 {
				return false
			}
		}
		return res.MaxViolation <= 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: POCS stays close to the start point — its perturbation should
// be no more than a small multiple of the projected-gradient solver's.
func TestPOCSNearMinimumNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p, _ := buildRandomFeasible(rng, 30, 12)
	x0 := make([]float64, p.N)
	for i := range x0 {
		x0[i] = rng.Float64() * 255
	}
	pocs, err := SolvePOCS(p, x0, Options{MaxSweeps: 1000, Tol: 1e-5})
	if err != nil || !pocs.Converged {
		t.Fatalf("POCS failed: %v %+v", err, pocs)
	}
	pg, err := solveProjGrad(p, x0, Options{MaxSweeps: 20000, Tol: 1e-2})
	if err != nil {
		t.Fatalf("ProjGrad failed: %v", err)
	}
	normOf := func(x []float64) float64 {
		var s float64
		for i := range x {
			d := x[i] - x0[i]
			s += d * d
		}
		return math.Sqrt(s)
	}
	np, ng := normOf(pocs.X), normOf(pg.X)
	// POCS should not be wildly worse than the penalized descent solution.
	if ng > 1e-9 && np > 3*ng+1 {
		t.Errorf("POCS norm %v much larger than projgrad %v", np, ng)
	}
}

func TestProjGradSimpleProblem(t *testing.T) {
	p := &Problem{
		N:   2,
		Box: Box{0, 255},
		Constraints: []Constraint{
			{Idx: []int{0, 1}, W: []float64{1, 1}, Target: 100, Eps: 2},
		},
	}
	res, err := solveProjGrad(p, []float64{10, 10}, Options{MaxSweeps: 50000, Tol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	s := res.X[0] + res.X[1]
	if math.Abs(s-100) > 2.1 {
		t.Errorf("projgrad constraint value = %v (x=%v, converged=%v)", s, res.X, res.Converged)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.MaxSweeps != 100 || !testutil.BitEqual(o.Tol, 1e-6) || !testutil.BitEqual(o.Relax, 1) {
		t.Errorf("defaults = %+v", o)
	}
	o = Options{MaxSweeps: 5, Tol: 0.1, Relax: 1.5}.withDefaults()
	if o.MaxSweeps != 5 || !testutil.BitEqual(o.Tol, 0.1) || !testutil.BitEqual(o.Relax, 1.5) {
		t.Errorf("explicit options clobbered: %+v", o)
	}
}

func BenchmarkPOCS1000Constraints(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p, _ := buildRandomFeasible(rng, 4096, 1000)
	x0 := make([]float64, p.N)
	for i := range x0 {
		x0[i] = rng.Float64() * 255
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolvePOCS(p, x0, Options{MaxSweeps: 50, Tol: 1e-3}); err != nil {
			b.Fatal(err)
		}
	}
}
