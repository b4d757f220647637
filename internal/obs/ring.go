package obs

// ringBuf is a fixed-capacity overwrite-oldest ring. It is not
// goroutine-safe on its own; its owner (Recorder) serializes access
// under its mutex, keeping the hot push path to one slot write
// and two index updates.
type ringBuf[T any] struct {
	buf  []T
	next int // slot the next push writes
	full bool
}

// newRingBuf returns a ring holding the last capacity values (min 1).
func newRingBuf[T any](capacity int) *ringBuf[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &ringBuf[T]{buf: make([]T, capacity)}
}

// push stores v, overwriting the oldest value once full, and reports
// whether a value was evicted.
func (r *ringBuf[T]) push(v T) (evicted bool) {
	evicted = r.full
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	return evicted
}

// size returns the number of retained values.
func (r *ringBuf[T]) size() int {
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// snapshot returns the retained values, oldest first.
func (r *ringBuf[T]) snapshot() []T {
	out := make([]T, 0, r.size())
	if r.full {
		out = append(out, r.buf[r.next:]...)
	}
	return append(out, r.buf[:r.next]...)
}
