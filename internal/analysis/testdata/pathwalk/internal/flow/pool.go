// Package flow is a fixture for the path-sensitive statement walker: one
// function per control-flow shape, seeded with pooled-buffer hazards (this
// file, poollife) and lock hazards (conc.go, lockorder), so both domains
// are pinned on the same statement forms.
package flow

import "sync"

var pool = sync.Pool{New: func() any { return new([]byte) }}

// get borrows a buffer from the pool.
//
//declint:owns
func get() *[]byte { return pool.Get().(*[]byte) }

// put returns a borrowed buffer.
//
//declint:transfers
func put(bp *[]byte) { pool.Put(bp) }

// ContinueClean releases before continue and at the end of the body: silent.
func ContinueClean(xs []int) {
	for _, x := range xs {
		bp := get()
		if x < 0 {
			put(bp)
			continue
		}
		put(bp)
	}
}

// BreakLeak leaves the loop through break with the borrow still live.
func BreakLeak(xs []int) {
	for _, x := range xs {
		bp := get()
		if x < 0 {
			break
		}
		put(bp)
	}
}

// LabeledBreak leaks on its labeled-break path: break outer flows to its
// label, so the borrow still live there leaves the outer loop, not just
// the inner one.
func LabeledBreak(rows [][]int) {
outer:
	for _, row := range rows {
		bp := get()
		for _, x := range row {
			if x < 0 {
				break outer
			}
		}
		put(bp)
	}
}

// SwitchNoDefault releases in every case, but no case may match.
func SwitchNoDefault(k int) {
	bp := get()
	switch k {
	case 0:
		put(bp)
	case 1:
		put(bp)
	}
}

// TypeSwitchDouble releases twice on its default arm.
func TypeSwitchDouble(v any) {
	bp := get()
	switch v.(type) {
	case int:
		put(bp)
	default:
		put(bp)
		put(bp)
	}
}

// SelectDefault leaks on its default arm.
func SelectDefault(ch chan int) {
	bp := get()
	select {
	case <-ch:
		put(bp)
	default:
	}
}

// SelectAll releases on every communication clause: silent.
func SelectAll(in, out chan int) {
	bp := get()
	select {
	case <-in:
		put(bp)
	case out <- 1:
		put(bp)
	}
}

// Goto leaks on its goto path. goto ends the path, so only the
// fall-through path is checked: the golden pins that blind spot.
func Goto(n int) int {
	bp := get()
	if n > 0 {
		goto done
	}
	put(bp)
	return 0
done:
	return n
}

// PanicArm releases only on the arm that does not panic: silent, because
// panic ends its path.
func PanicArm(k int) {
	bp := get()
	if k < 0 {
		panic("negative")
	} else {
		put(bp)
	}
}

// LabeledContinue leaks on its labeled-continue path: continue outer
// carries the live borrow to the outer loop's next iteration.
func LabeledContinue(rows [][]int) {
outer:
	for _, row := range rows {
		bp := get()
		for _, x := range row {
			if x < 0 {
				continue outer
			}
		}
		put(bp)
	}
}
