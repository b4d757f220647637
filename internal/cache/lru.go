// Package cache provides the bounded get-or-build LRU shared by the
// repository's two memoized construction paths: fourier transform plans
// and scaling coefficient operators. One implementation means one
// concurrency story — mutex-guarded map with a logical access clock,
// build outside the lock, lost-race keeps the incumbent — and one place
// where obs cache statistics are recorded.
package cache

import (
	"math"
	"sync"

	"decamouflage/internal/obs"
)

type entry[V any] struct {
	val  V
	used uint64 // logical access clock, for LRU eviction
}

// LRU is a bounded least-recently-used memo keyed by K. The zero value is
// not usable; construct with NewLRU. Values are shared between callers
// and must be treated as immutable; eviction only drops the cache's
// reference, so values already held remain valid.
type LRU[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	m     map[K]*entry[V]
	clock uint64
	stats *obs.CacheStats
}

// NewLRU returns a cache bounded to capacity entries. stats may be nil;
// when set, hits, misses, evictions and population are recorded on it.
func NewLRU[K comparable, V any](capacity int, stats *obs.CacheStats) *LRU[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU[K, V]{cap: capacity, m: make(map[K]*entry[V]), stats: stats}
}

// GetOrBuild returns the cached value for key, invoking build on first
// use. build runs OUTSIDE the cache lock: construction is the expensive
// part, holding the lock across it would serialize unrelated keys, and
// build may reenter the same cache (fourier's Bluestein plans build the
// plan of their convolution length through GetOrBuild). Concurrent callers may therefore
// briefly build the same value twice; whichever insert loses the race
// adopts the incumbent, so all callers share one instance. A build error
// is returned as-is and caches nothing.
func (c *LRU[K, V]) GetOrBuild(key K, build func() (V, error)) (V, error) {
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		c.clock++
		e.used = c.clock
		v := e.val
		c.mu.Unlock()
		c.stats.Hit()
		return v, nil
	}
	c.mu.Unlock()
	c.stats.Miss()

	v, err := build()
	if err != nil {
		var zero V
		return zero, err
	}

	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		// Lost the build race; keep the incumbent.
		c.clock++
		e.used = c.clock
		v := e.val
		c.mu.Unlock()
		return v, nil
	}
	c.clock++
	c.m[key] = &entry[V]{val: v, used: c.clock}
	evicted := 0
	for len(c.m) > c.cap {
		var oldest K
		var oldestUsed uint64 = math.MaxUint64
		for k, e := range c.m {
			if e.used < oldestUsed {
				oldest, oldestUsed = k, e.used
			}
		}
		delete(c.m, oldest)
		evicted++
	}
	size := len(c.m)
	c.mu.Unlock()
	if evicted > 0 {
		c.stats.Evict(evicted)
	}
	c.stats.Resize(size)
	return v, nil
}

// Len reports the current population.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Reset empties the cache (tests).
func (c *LRU[K, V]) Reset() {
	c.mu.Lock()
	c.m = make(map[K]*entry[V])
	c.clock = 0
	size := len(c.m)
	c.mu.Unlock()
	c.stats.Resize(size)
}
