package lib_test

import (
	"testing"

	"exporttest/internal/lib"
)

func TestRoundTrip(t *testing.T) {
	if lib.Half(lib.Double(3)) != 3 {
		t.Fatal("round trip")
	}
}
