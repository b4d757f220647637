package scaling

import "testing"

// Test files may use raw goroutines (cancellation tests, deadlock probes);
// golife must not flag them.
func TestSum(t *testing.T) {
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
	if Sum([]int{1, 2}) != 5 {
		t.Fatal("bad sum")
	}
}
