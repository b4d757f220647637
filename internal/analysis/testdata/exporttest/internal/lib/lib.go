package lib

// Double is the library's exported name.
func Double(x int) int { return 2 * x }
