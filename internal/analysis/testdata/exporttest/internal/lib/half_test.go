package lib

// half is test-only code in the package itself.
func half(x int) int { return x / 2 }
