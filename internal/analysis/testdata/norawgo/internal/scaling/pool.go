// Package scaling is a fixture: a hand-rolled worker pool in a kernel
// package, which golife flags for its missing spawns directive.
package scaling

import "sync"

// Sum fans out over a hand-rolled pool.
func Sum(xs []int) int {
	var wg sync.WaitGroup
	out := make([]int, len(xs))
	for i, x := range xs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = x * x
		}()
	}
	wg.Wait()
	total := 0
	for _, v := range out {
		total += v
	}
	return total
}
