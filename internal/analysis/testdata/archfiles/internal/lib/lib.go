package lib

// Width is the library's exported name; kernelWidth has one declaration
// per build.
func Width() int { return kernelWidth() }
