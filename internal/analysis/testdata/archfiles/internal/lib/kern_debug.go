//go:build debugkern

package lib

func kernelWidth() int { return 0 }
