//go:build !race

package metrics

// raceEnabled reports whether the test binary runs under the race detector.
const raceEnabled = false
