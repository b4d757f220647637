// Package parallel is the single concurrency substrate shared by every hot
// image path in this repository: a deterministic chunked parallel-for.
//
// Design constraints, in order of importance:
//
//   - Determinism. Every call site is numeric code whose output must be
//     bit-identical regardless of worker count. For guarantees this by
//     construction: the index range is split into fixed chunks whose
//     boundaries depend only on (n, grain) — never on the worker count or
//     on scheduling — and each chunk writes a disjoint output region. Which
//     worker executes a chunk is irrelevant to the result.
//   - Bounded parallelism. The default worker count is GOMAXPROCS; an
//     explicit Workers(n) pin is honoured exactly (even above GOMAXPROCS),
//     which tests use to force real concurrency on single-core runners.
//   - Serial fallback. When the whole range fits in one chunk, or only one
//     worker is available, the loop runs on the calling goroutine with no
//     goroutine or channel overhead — small inputs pay nothing.
//   - Context awareness. Cancellation is observed between chunks; a
//     cancelled context stops dispatch and For returns ctx.Err() whenever
//     any chunk was skipped.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"decamouflage/internal/obs"
)

// Substrate counters, resolved once: calls into For, calls that took the
// serial fallback, total chunks dispatched, and the worker count of the
// most recent concurrent call. Recording is a few atomic ops per For call
// (not per chunk), invisible next to the numeric work each call fans out.
var (
	forCalls   = obs.C("parallel.for.calls")
	forSerial  = obs.C("parallel.for.serial")
	forTasks   = obs.C("parallel.tasks")
	forWorkers = obs.G("parallel.workers")
)

type config struct {
	workers int
	grain   int
}

// Option configures one For or Do call. Options are plain values (not
// closures) so that assembling and applying them never heap-allocates —
// For/Do sit on per-row hot paths where a per-call allocation is
// measurable.
type Option struct {
	workers    int
	setWorkers bool
	grain      int
}

func (o Option) apply(c *config) {
	if o.setWorkers {
		c.workers = o.workers
	}
	if o.grain > 0 {
		c.grain = o.grain
	}
}

// Workers pins the worker count. n <= 0 restores the default (GOMAXPROCS).
// A positive n is honoured exactly, even above GOMAXPROCS, so tests can
// exercise the concurrent path on single-core machines.
func Workers(n int) Option {
	return Option{workers: n, setWorkers: true}
}

// Grain sets the minimum number of consecutive indices handed to fn per
// call (default 1). Chunk boundaries — and therefore results — depend only
// on n and the grain, never on the worker count. Calls whose whole range
// fits in one chunk run serially on the calling goroutine.
func Grain(n int) Option {
	if n <= 0 {
		return Option{}
	}
	return Option{grain: n}
}

// DefaultWorkers returns the worker count used when no Workers option is
// given: GOMAXPROCS at call time.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// GrainForWidth returns a row-granularity for 2-D sweeps: the smallest
// chunk (in rows of rowCost samples each) that keeps per-chunk work at or
// above minWork samples, so tiny images fall back to the serial path while
// large ones split into enough chunks to keep every worker busy.
func GrainForWidth(rowCost, minWork int) int {
	if rowCost <= 0 {
		return 1
	}
	g := minWork / rowCost
	if g < 1 {
		g = 1
	}
	return g
}

// For runs fn over the half-open chunks of [0, n): fn(lo, hi) with
// 0 <= lo < hi <= n, each chunk grain indices long except the last. Chunks
// execute at most once, concurrently on up to Workers goroutines, in
// unspecified order. fn must therefore only touch state disjoint between
// chunks (the universal pattern here: chunk i writes output indices
// [lo, hi) and reads shared immutable input).
//
// The first error — ties broken toward the lowest chunk index, so the
// returned error is deterministic even under races — stops dispatch and is
// returned. A context cancellation observed before all chunks completed
// returns ctx.Err(); if every chunk ran to completion, For returns nil
// regardless of late cancellation.
//
// For is a fork-join pool of Workers goroutines: every path joins them
// via wg.Wait before it returns.
func For(ctx context.Context, n int, fn func(lo, hi int) error, opts ...Option) error {
	cfg := config{grain: 1}
	for _, o := range opts {
		o.apply(&cfg)
	}
	if n <= 0 {
		return ctx.Err()
	}
	workers := cfg.workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	chunks := (n + cfg.grain - 1) / cfg.grain
	if workers > chunks {
		workers = chunks
	}
	forCalls.Inc()
	forTasks.Add(int64(chunks))
	if workers <= 1 {
		forSerial.Inc()
		// Serial fallback: same chunk boundaries, same fn, calling goroutine.
		for lo := 0; lo < n; lo += cfg.grain {
			if err := ctx.Err(); err != nil {
				return err
			}
			hi := lo + cfg.grain
			if hi > n {
				hi = n
			}
			if err := fn(lo, hi); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next atomic.Int64 // next chunk index to claim
		done atomic.Int64 // chunks completed without error
		stop atomic.Bool  // set on first error or observed cancellation

		mu       sync.Mutex
		firstErr error
		errChunk int64
	)
	forWorkers.Set(int64(workers))
	record := func(chunk int64, err error) {
		mu.Lock()
		if firstErr == nil || chunk < errChunk {
			firstErr, errChunk = err, chunk
		}
		mu.Unlock()
		stop.Store(true)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stop.Load() {
					return
				}
				if ctx.Err() != nil {
					stop.Store(true)
					return
				}
				chunk := next.Add(1) - 1
				if chunk >= int64(chunks) {
					return
				}
				lo := int(chunk) * cfg.grain
				hi := lo + cfg.grain
				if hi > n {
					hi = n
				}
				if err := fn(lo, hi); err != nil {
					record(chunk, err)
					return
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if done.Load() != int64(chunks) {
		// Only cancellation can leave chunks unfinished without an fn error.
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Do runs the given tasks with one chunk per task and returns the first
// error by task order among those that ran, or ctx.Err() on cancellation.
// It is the fork-join form of For, used where the units of work are
// heterogeneous functions (e.g. the three detection methods of an
// ensemble) rather than an index range.
func Do(ctx context.Context, tasks []func() error, opts ...Option) error {
	return For(ctx, len(tasks), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := tasks[i](); err != nil {
				return err
			}
		}
		return nil
	}, opts...)
}
