// Package report is a fixture: long-lived goroutines outside the substrate,
// which golife holds to a spawns directive and a termination signal.
package report

// Serve starts a long-lived background listener.
func Serve(handle func()) {
	// A long-lived server goroutine, not numeric fan-out.
	go handle()
}

// ServeTrailing starts the same listener in one line.
func ServeTrailing(handle func()) {
	go handle()
}
