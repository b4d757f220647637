// Package parallel is a fixture: the fork-join substrate itself, which
// golife still holds to a spawns directive.
package parallel

import "sync"

// Do runs every task on its own goroutine.
func Do(tasks []func()) {
	var wg sync.WaitGroup
	for _, t := range tasks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t()
		}()
	}
	wg.Wait()
}
