// Fixture: goroutine capture. This package plays the substrate role;
// poollife flags the borrow whose lifetime crosses into the goroutine it
// cannot follow.
package parallel

import "sync"

var pool = sync.Pool{New: func() any { return new([]byte) }}

// Spawn hands a borrow to a goroutine the checker cannot follow.
func Spawn() {
	bp := pool.Get().(*[]byte)
	go func() {
		pool.Put(bp)
	}()
}
