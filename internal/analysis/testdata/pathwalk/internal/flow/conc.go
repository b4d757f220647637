package flow

import (
	"os"
	"sync"
)

// Box guards a counter.
type Box struct {
	mu sync.Mutex
	n  int
}

// ContinueUnlock unlocks before continue and at the end of the body: silent.
func (b *Box) ContinueUnlock(xs []int) {
	for _, x := range xs {
		b.mu.Lock()
		if x < 0 {
			b.mu.Unlock()
			continue
		}
		b.n += x
		b.mu.Unlock()
	}
}

// BreakUnlock leaves the loop through break with the lock held and
// releases it after the loop, where only some paths hold it.
func (b *Box) BreakUnlock(xs []int) {
	for _, x := range xs {
		b.mu.Lock()
		if x < 0 {
			break
		}
		b.mu.Unlock()
	}
	b.mu.Unlock()
}

// SwitchDoubleLock relocks the held mutex in a case of a switch with no
// default.
func (b *Box) SwitchDoubleLock(k int) {
	b.mu.Lock()
	switch k {
	case 0:
		b.mu.Lock()
		b.mu.Unlock()
	}
	b.mu.Unlock()
}

// TypeSwitchUnlock locks on one arm only and unlocks after the switch.
func (b *Box) TypeSwitchUnlock(v any) {
	switch v.(type) {
	case int:
		b.mu.Lock()
	default:
	}
	b.mu.Unlock()
}

// SelectCloseSend closes on one clause of a select with a default, then
// sends: no lock is held, so lockorder is silent.
func SelectCloseSend(ch chan int, done chan struct{}) {
	select {
	case <-done:
		close(ch)
	default:
	}
	ch <- 1
}

// GotoLock leaks the lock on its goto path. goto ends the path, so only
// the fall-through path is checked.
func (b *Box) GotoLock(k int) int {
	b.mu.Lock()
	if k > 0 {
		goto out
	}
	b.mu.Unlock()
	return 0
out:
	return k
}

// ExitArm holds the lock on the arm that does not exit, then relocks it:
// os.Exit ends its path, so the double lock is reported.
func (b *Box) ExitArm(k int) {
	if k < 0 {
		os.Exit(1)
	} else {
		b.mu.Lock()
	}
	b.mu.Lock()
	b.mu.Unlock()
	b.mu.Unlock()
}

// PanicClose closes the channel only on the arm that panics, then sends:
// panic ends its path, and no lock is held.
func PanicClose(ch chan int, k int) {
	if k < 0 {
		close(ch)
		panic("negative")
	}
	ch <- k
}
