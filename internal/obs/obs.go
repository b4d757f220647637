// Package obs is the repository's stdlib-only observability layer: a
// lock-cheap metrics registry (atomic counters, gauges and fixed-bucket
// latency histograms with Prometheus-text, JSON and expvar exposition),
// lightweight tracing spans that render a per-image detection timeline,
// and profiling hooks (CPU/heap profiles plus a debug HTTP server serving
// net/http/pprof, /metrics and /healthz).
//
// The package exists because the paper treats per-method latency as a
// first-class result (Table "overhead": 137-174 ms per method in
// online-protection mode) and because the PR 3 caches and the PR 1
// parallel substrate cannot be tuned without visibility into hit rates and
// worker utilization.
//
// # Cost model
//
// Everything is off by default and engineered to cost ~zero when off:
//
//   - Metrics are gated by one package-level atomic flag. A disabled
//     Counter.Inc is a nil check, one atomic load and a return — no
//     locks, no allocation (BenchmarkDetectDisabled pins the end-to-end
//     overhead at <= 2% vs a build with the instrumentation compiled out).
//   - Spans only exist inside a context that carries a trace (WithTrace);
//     StartSpan on an untraced context is a single context.Value miss.
//   - The `noobs` build tag compiles the whole layer out: every entry
//     point short-circuits on a constant the compiler eliminates, which is
//     what the CI overhead guard benchmarks against.
//
// Every method is nil-safe: a nil *Counter, *Gauge, *Histogram, *Span,
// *Trace or *Registry is a no-op, so instrumented code never needs to
// guard its own observability calls.
package obs

import "sync/atomic"

// enabled gates all metric recording. Tracing is gated separately, by the
// presence of a trace in the context (see WithTrace).
var enabled atomic.Bool

// Enable turns metric recording on.
func Enable() { enabled.Store(true) }

// Disable turns metric recording off (the default).
func Disable() { enabled.Store(false) }

// Enabled reports whether metric recording is on. Under the noobs build
// tag it is constant false.
func Enabled() bool { return !compiledOut && enabled.Load() }
