//go:build !amd64

package lib

func kernelWidth() int { return 1 }
