package scaling

import "sort"

// SortedKeys collects then sorts, which is deterministic; the collection
// loop still trips the syntactic check and documents itself with an
// ignore directive.
func SortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	//declint:ignore detprop keys are sorted immediately below
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
