//go:build !amd64

package filtering

func taps16Supported() bool { return false }

// taps16 has no kernel off amd64; haveTaps16 is false there, so
// convolveTaps never calls it.
func taps16(out, src *float64, offs *int, kern *float64, nk, n int) {
	panic("filtering: taps16 called without a kernel")
}
