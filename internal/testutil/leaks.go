// Goroutine-leak detection for test suites, stdlib only. VerifyNoLeaks
// snapshots the live goroutine set when called and diffs it against the
// set at test cleanup: anything the test started and failed to join is a
// leak. It is one of the guards of the goroutine topology listed in
// docs/concurrency.md: a goroutine that outlives its test fails it. A Stop
// that signals its loop but forgets to join it slips through, because the
// loop still exits within the settle window; such joins need a direct test.
package testutil

import (
	"runtime"
	"sort"
	"strings"
	"time"
)

// testingT is the subset of *testing.T VerifyNoLeaks needs; an interface
// so the helper's own tests can capture failures instead of failing.
type testingT interface {
	Helper()
	Cleanup(func())
	Errorf(format string, args ...any)
}

// VerifyNoLeaks registers a cleanup that fails the test if goroutines
// started during the test are still running when it ends. Call it first
// thing in the test (or TestMain-adjacent helper); every goroutine visible
// at that point is grandfathered in, so parallel siblings and the test
// runner itself never count.
//
// Exiting goroutines are not instantaneous — a Stop that closed its done
// channel returns before the runtime reaps the stack — so the differ
// retries with backoff for a settle window before declaring a leak.
func VerifyNoLeaks(t testingT) {
	t.Helper()
	before := goroutineSet()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		var leaked []string
		for {
			leaked = leakedSince(before)
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("leaked %d goroutine(s):\n%s", len(leaked), strings.Join(leaked, "\n"))
	})
}

// goroutineSet returns the current goroutine stacks keyed by header line
// ("goroutine N [state]:" with the state stripped, so a goroutine that
// merely changed state between snapshots is not reported as new).
func goroutineSet() map[string]bool {
	set := map[string]bool{}
	for _, g := range goroutineDump() {
		set[goroutineID(g)] = true
	}
	return set
}

// leakedSince returns rendered stacks of goroutines absent from before,
// skipping ones that are uninteresting by construction: the differ's own
// caller and runtime-internal helpers that come and go on their own
// schedule (GC workers, finalizers, timer scavenging).
func leakedSince(before map[string]bool) []string {
	var leaked []string
	for _, g := range goroutineDump() {
		if before[goroutineID(g)] || boringGoroutine(g) {
			continue
		}
		leaked = append(leaked, strings.TrimSpace(g))
	}
	sort.Strings(leaked)
	return leaked
}

// goroutineDump splits a full runtime.Stack dump into one string per
// goroutine.
func goroutineDump() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	return strings.Split(string(buf), "\n\n")
}

// goroutineID extracts "goroutine N" from a stack header, dropping the
// mutable [state] suffix.
func goroutineID(g string) string {
	header, _, _ := strings.Cut(g, "\n")
	id, _, _ := strings.Cut(header, " [")
	return id
}

// boringGoroutine reports whether the stack belongs to runtime machinery
// that starts and stops outside any test's control.
func boringGoroutine(g string) bool {
	for _, frame := range []string{
		"runtime.gc",
		"runtime.bgsweep",
		"runtime.bgscavenge",
		"runtime.forcegchelper",
		"runtime/trace",
		"testing.(*T).Run",
		"testing.tRunner",
		"runtime.ReadMemStats",
		"created by runtime",
	} {
		if strings.Contains(g, frame) {
			return true
		}
	}
	return false
}
