// Package pipe is a fixture: channel-discipline hazards — a send on a
// cancellation path without a ctx guard, a per-iteration time.After timer,
// a send after close, and a magic buffer capacity.
package pipe

import (
	"context"
	"time"
)

// depth is the sanctioned way to size a buffer: a named constant.
const depth = 8

// Push receives a ctx but sends without a ctx.Done select guard, so the
// send can outlive cancellation.
func Push(ctx context.Context, out chan int, vs []int) {
	for _, v := range vs {
		if ctx.Err() != nil {
			return
		}
		out <- v
	}
}

// PushGuarded is the clean shape: every send selects on ctx.Done.
func PushGuarded(ctx context.Context, out chan int, vs []int) {
	for _, v := range vs {
		select {
		case out <- v:
		case <-ctx.Done():
			return
		}
	}
}

// Poll mints a fresh timer every iteration: each lost race leaks one until
// it fires.
func Poll(ch chan int) int {
	total := 0
	for i := 0; i < 3; i++ {
		select {
		case v := <-ch:
			total += v
		case <-time.After(time.Millisecond):
		}
	}
	return total
}

// Flush closes the channel and then sends on it: a guaranteed panic.
func Flush(n int) chan int {
	ch := make(chan int, 1)
	close(ch)
	ch <- n
	return ch
}

// Feed sizes its buffer with a bare literal instead of a named constant.
func Feed() chan int {
	return make(chan int, 64)
}

// FeedSized is the clean variant: the capacity has a name.
func FeedSized() chan int {
	return make(chan int, depth)
}

// FlushAfterSwitch closes and then sends after a switch whose every arm
// ends in break: break leaves the switch, it does not end the path.
func FlushAfterSwitch(n, k int) chan int {
	ch := make(chan int, 1)
	switch k {
	case 0:
		break
	default:
		break
	}
	close(ch)
	ch <- n
	return ch
}
