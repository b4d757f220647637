package lib

// Half exposes the test-only half to the external tests.
var Half = half
