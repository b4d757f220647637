// Package testutil holds the repository's intentional exact-equality
// helpers. Decamouflage's serial-vs-parallel equivalence suites assert
// BIT-IDENTICAL output — approximate comparison would mask the exact class
// of nondeterminism they exist to catch — and expected-value tests pin
// results computed by construction. Those are the only two places exact
// float comparison is correct, so declint's floateq check allowlists this
// package alone; every other ==/!= on floats is a finding. Routing an
// assertion through these helpers is an explicit statement that exact
// equality is the point.
//
// The package also holds the repository's tolerance helpers (ApproxEqual,
// ULPDiff) for the few paths whose fast implementations legitimately
// reorder floating-point summation (box filter running sums, SSIM blur
// scratch reuse): keeping them here means every float comparison idiom in
// the test suite routes through one audited package.
package testutil

import "math"

// BitEqual reports whether a and b are exactly equal. NaN compares unequal
// to everything including itself, matching IEEE-754 ==; callers asserting
// NaN propagation should compare math.IsNaN results instead.
func BitEqual(a, b float64) bool { return a == b }

// BitEqual32 is BitEqual for float32 operands.
func BitEqual32(a, b float32) bool { return a == b }

// BitEqualComplex reports exact equality of both parts.
func BitEqualComplex(a, b complex128) bool { return a == b }

// FirstDiff returns the index of the first pair of samples that are not
// exactly equal, or -1 when the slices match element-wise. Slices of
// different lengths differ at the first index past the shorter one.
func FirstDiff(a, b []float64) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// FirstBitDiff is FirstDiff on the IEEE-754 bit patterns: −0 differs
// from +0, and a NaN matches a NaN of the same payload. Kernels that claim
// to keep every sample's operations, not only its value, are pinned with
// it.
func FirstBitDiff(a, b []float64) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// FirstDiffComplex is FirstDiff over complex128 slices.
func FirstDiffComplex(a, b []complex128) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// ApproxEqual reports whether a and b agree within the given relative OR
// absolute tolerance: |a-b| <= absTol, or |a-b| <= relTol·max(|a|, |b|).
// The absolute term handles comparisons near zero where relative error is
// meaningless; the relative term handles large magnitudes. Two NaNs compare
// equal (both paths failed identically); a NaN against a non-NaN does not.
// Infinities of the same sign compare equal.
func ApproxEqual(a, b, relTol, absTol float64) bool {
	if a == b {
		// Covers equal infinities and exact matches without overflowing the
		// difference below.
		return true
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		// Unequal operands with an infinity among them: the difference is
		// infinite (or NaN), so no finite tolerance can admit it.
		return false
	}
	d := math.Abs(a - b)
	if d <= absTol {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= relTol*m
}

// ULPDiff returns the distance between a and b in units of last place: the
// number of distinct float64 values strictly between them, plus one. Equal
// values (including -0 vs +0) return 0. The measure is symmetric and works
// across the zero boundary by mapping floats onto a monotone integer line.
// If either operand is NaN, ULPDiff returns math.MaxUint64.
func ULPDiff(a, b float64) uint64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.MaxUint64
	}
	ia, ib := ulpIndex(a), ulpIndex(b)
	if ia == ib {
		return 0
	}
	if ia > ib {
		ia, ib = ib, ia
	}
	return uint64(ib - ia)
}

// ulpIndex maps a float64 onto a monotone signed-integer line: adjacent
// representable floats map to adjacent integers, and -0/+0 map to the same
// point. This is the standard sign-magnitude to two's-complement fold.
func ulpIndex(x float64) int64 {
	bits := math.Float64bits(x)
	if bits&(1<<63) != 0 {
		// Negative: fold below zero, collapsing -0 onto +0.
		return -int64(bits &^ (1 << 63))
	}
	return int64(bits)
}
