package qpsolve

// SolveProjGrad exposes the test-only projected-gradient solver to the
// external tests that cross-check solvers through the attack.
var SolveProjGrad = solveProjGrad
