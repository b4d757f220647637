// Package scaling is a fixture: every direct nondeterminism source detprop
// reports in a kernel package, package-level var initializers included.
package scaling

import (
	"math/rand"
	"time"
)

// Jitter mixes wall-clock time and math/rand into a numeric result.
func Jitter() float64 {
	t := time.Now().UnixNano()
	return float64(t) + rand.Float64()
}

// Keys feeds map iteration order into a slice.
func Keys(m map[string]float64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// SumValues is order-independent accumulation over a map: allowed.
func SumValues(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}

// t0 reads the wall clock at package initialization.
var t0 = time.Now()

// names feeds map iteration order into a package-level slice.
var names = func() []string {
	var out []string
	for k := range map[string]int{"a": 1, "b": 2} {
		out = append(out, k)
	}
	return out
}()
