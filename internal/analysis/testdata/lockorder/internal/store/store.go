// Package store is a fixture: lock-order hazards over two package-level
// mutexes and a struct mutex — an acquisition-order cycle, a self-deadlock
// through a call chain, blocking under a held lock, and an unlock with no
// matching lock.
package store

import (
	"sync"
	"time"
)

var (
	muA sync.Mutex
	muB sync.Mutex
)

// AB acquires in the sanctioned order.
func AB() {
	muA.Lock()
	muB.Lock()
	muB.Unlock()
	muA.Unlock()
}

// BA inverts it: together with AB this closes a lock-order cycle.
func BA() {
	muB.Lock()
	muA.Lock()
	muA.Unlock()
	muB.Unlock()
}

// Store wraps a counter behind a mutex.
type Store struct {
	mu sync.Mutex
	n  int
}

// Size reports the count.
func (s *Store) Size() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Grow holds mu and calls Size, which reacquires it: self-deadlock.
func (s *Store) Grow() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	return s.Size()
}

// Nap blocks while holding the lock.
func (s *Store) Nap() {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(time.Millisecond)
}

// Drain waits for workers while holding the lock.
func (s *Store) Drain(wg *sync.WaitGroup) {
	s.mu.Lock()
	defer s.mu.Unlock()
	wg.Wait()
}

// Drop unlocks a mutex it never locked.
func Drop() {
	muA.Unlock()
}

// Twice relocks mu after a select whose every clause ends in break: break
// leaves the select, it does not end the path.
func (s *Store) Twice(ch chan int) {
	select {
	case <-ch:
		break
	default:
		break
	}
	s.mu.Lock()
	s.mu.Lock()
	s.mu.Unlock()
	s.mu.Unlock()
}
