// Package analysis is declint's engine: a pure-stdlib static-analysis
// driver (go/parser, go/types, go/importer — no external tooling) that
// walks every package in the module and enforces the repository's
// determinism, concurrency, and float-safety invariants as named,
// individually-testable checks.
//
// The invariants exist because Decamouflage's detection thresholds
// (MSE/SSIM/CSP, Tables V–IX of the paper) are only reproducible if every
// numeric kernel is bit-deterministic. PR 1's internal/parallel substrate
// established that by convention; these checks enforce it mechanically:
//
//	floateq      no ==/!= on float operands outside the intentional
//	             exact-equality helpers in internal/testutil
//	errdrop      no `_ =` discards of error-returning calls in non-test code
//	obsonly      no runtime/pprof, net/http/pprof, or expvar imports outside
//	             internal/obs and the cmd/ entry points
//
// On top of the per-package walks sits a dataflow layer (effects.go,
// callgraph.go): an intraprocedural effects pass summarizes every function
// (allocations, forbidden sources, context facts, call edges), and a
// whole-module call graph links the summaries — static calls, method
// values, and interface dispatch resolved to module-defined implementers.
// Six checks run on that graph:
//
//	hotalloc     //declint:hot functions and their whole static call closure
//	             must be allocation-free
//	detprop      determinism: no time.Now, math/rand, or map-ordered output
//	             in a kernel package, nor any call chain from one reaching
//	             them
//	ctxflow      internal functions receiving a ctx must use it and must not
//	             mint context.Background/TODO; only exported entry points root
//	             contexts
//	poollife     values borrowed from sync.Pool.Get (and //declint:owns
//	             helpers) must be released exactly once on every path, never
//	             used after a release, and never escape without a
//	             //declint:owns / //declint:transfers custody annotation —
//	             whose claims are themselves verified at the callee
//	memopure     memoized pipeline-stage compute closures must be pure
//	             functions of their stage key: no captured or package-level
//	             writes, no reachable nondeterministic source
//	obscover     every memoized stage opens an obs span, every LRU cache
//	             registers real obs stats, and every flight-recorder event
//	             is emitted inside an active span, so instrumentation
//	             cannot rot
//
// poollife and the concurrency layer both interpret bodies path by path
// through one statement walker (pathwalk.go), each supplying only its
// abstract state and transfer functions. The concurrency layer
// (concurrency_effects.go) extends the effects pass with that
// path-sensitive interpretation of each body — mutex acquire/release with
// defer pairing and RWMutex modes, the held-lock set at every call site,
// channel operations with their select/ctx guards, and which calls run on
// a new goroutine — and one more graph check consumes those facts:
//
//	lockorder    whole-module lock-order graph: cycles, double-lock along a
//	             call chain, blocking calls or channel ops under a held
//	             mutex, unlock-without-lock and lock-leak paths; nested
//	             cross-function acquires must be declared with
//	             //declint:locks-after <outer>
//
// Some invariants are guarded by tests, not by a check. Goroutine
// lifetimes: the tree's few go statements each have a test that fails
// when Stop, Close or the fork-join wait stops joining (see
// docs/concurrency.md). Parallel closures writing shared state: the race
// detector over the serial-vs-parallel equivalence suites, run at
// GOMAXPROCS=4 in CI so every parallel.For fans out. NaN/Inf and
// malformed tensors: TestTensorEntryPointsHostileInput in internal/detect
// runs every exported tensor entry point of metrics, steg and detect over
// a hostile-input table.
//
// Intentional violations are annotated in place:
//
//	//declint:ignore <check> <reason>
//
// where the reason is mandatory and the directive covers its own line and
// the line below.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Finding is one rule violation at a position. Suppressed is set (instead
// of the finding being dropped) when an //declint:ignore directive covers
// it and Config.IncludeSuppressed is on, so machine-readable output can
// show what was waived and why the tree is still clean.
type Finding struct {
	Check      string         `json:"check"`
	Pos        token.Position `json:"pos"`
	Msg        string         `json:"msg"`
	Suppressed bool           `json:"suppressed,omitempty"`
	// Reason carries the waiver text of the covering //declint:ignore
	// directive when Suppressed is set — the raw material of the
	// docs/declint_waivers.md inventory.
	Reason string `json:"reason,omitempty"`
}

// String renders the canonical file:line:col form findings are reported in.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Msg)
}

// Config scopes the checks. The zero value is unusable; start from
// DefaultConfig, which encodes this repository's layout. All package
// matching is by import-path suffix (see Package.HasSuffix), so testdata
// fixtures that mirror the layout are checked under the same config.
type Config struct {
	// Checks names the checks to run, in registry order. Empty = all.
	Checks []string

	// ParallelPkg is the fork-join substrate: lockorder counts a call to
	// its For/Do under a held mutex as blocking.
	ParallelPkg string
	// DeterminismPkgs are the numeric kernel packages whose non-test code
	// must be bit-deterministic (detprop).
	DeterminismPkgs []string
	// FloatEqAllowPkgs are packages whose float ==/!= are intentional by
	// charter (the shared exact-equality test helpers).
	FloatEqAllowPkgs []string
	// ObsPkg is the one library package allowed to import the profiling
	// and metrics-exposition machinery directly.
	ObsPkg string
	// ObsOnlyImports are the import paths restricted to ObsPkg and the
	// cmd/ entry points.
	ObsOnlyImports []string
	// TaintExemptPkgs are packages detprop's taint traversal treats as
	// barriers: observability reads clocks to stamp spans but never feeds
	// numeric kernel output, so reaching it is not nondeterminism.
	TaintExemptPkgs []string
	// MemoTypes are the qualified memo-table types ("pkgpath.TypeName",
	// suffix-matched) whose memo(key, closure) compute closures memopure
	// and obscover analyze as pipeline stages.
	MemoTypes []string
	// CachePkg is the package whose NewLRU constructor obscover audits for
	// nil stats registrations.
	CachePkg string
	// RecorderTypes are the qualified flight-recorder types
	// ("pkgpath.TypeName", suffix-matched) whose Record method obscover
	// requires to be called inside an active span — after an ObsPkg
	// StartSpan/StartStage call in the same function — so every wide
	// event carries a trace ID and stage attribution. ObsPkg itself is
	// exempt (it defines the recorder, and its tests record hand-built
	// events with no request span).
	RecorderTypes []string
	// IncludeSuppressed keeps ignored findings in Run's result with
	// Finding.Suppressed set instead of dropping them.
	IncludeSuppressed bool
}

// DefaultConfig returns the configuration declint runs with on this module.
func DefaultConfig() Config {
	return Config{
		ParallelPkg: "internal/parallel",
		DeterminismPkgs: []string{
			"internal/scaling", "internal/fourier", "internal/filtering",
			"internal/metrics", "internal/steg", "internal/attack",
			"internal/qpsolve", "internal/detect",
		},
		FloatEqAllowPkgs: []string{"internal/testutil"},
		ObsPkg:           "internal/obs",
		ObsOnlyImports: []string{
			"runtime/pprof", "net/http/pprof", "expvar",
		},
		TaintExemptPkgs: []string{"internal/obs"},
		MemoTypes:       []string{"internal/detect.Intermediates"},
		CachePkg:        "internal/cache",
		RecorderTypes:   []string{"internal/obs.Recorder"},
	}
}

// A check inspects code under a config and reports findings. Per-package
// checks set run; whole-module dataflow checks set runModule and receive
// the call-graph Index, which Run builds once and shares.
type check struct {
	name      string
	doc       string
	run       func(pkg *Package, cfg Config) []Finding
	runModule func(pkgs []*Package, cfg Config, ix *Index) []Finding
}

// registry holds every check in report order. Names are part of the
// suppression syntax, so they are stable API.
var registry = []check{
	{name: "floateq", doc: "exact ==/!= on float operands", run: checkFloatEq},
	{name: "errdrop", doc: "_ = discards of error-returning calls", run: checkErrDrop},
	{name: "obsonly", doc: "profiling/exposition imports outside internal/obs and cmd/", run: checkObsOnly},
	{name: "hotalloc", doc: "allocations reachable from //declint:hot kernel functions", runModule: checkHotAlloc},
	{name: "detprop", doc: "time/rand/map-order sources in or reachable from kernel packages", runModule: checkDetProp},
	{name: "ctxflow", doc: "dropped or re-minted contexts in internal library code", runModule: checkCtxFlow},
	{name: "poollife", doc: "pooled buffers not released exactly once on every path", runModule: checkPoolLife},
	{name: "memopure", doc: "memoized stage closures that are not pure functions of their key", runModule: checkMemoPure},
	{name: "obscover", doc: "pipeline stages, caches or event emitters missing obs instrumentation", runModule: checkObsCover},
	{name: "lockorder", doc: "lock-order cycles, double-locks, and blocking calls under a held mutex", runModule: checkLockOrder},
}

// Checks lists the registered check names and one-line descriptions.
func Checks() []struct{ Name, Doc string } {
	out := make([]struct{ Name, Doc string }, len(registry))
	for i, c := range registry {
		out[i] = struct{ Name, Doc string }{c.name, c.doc}
	}
	return out
}

// KnownCheck reports whether name is a registered check.
func KnownCheck(name string) bool {
	for _, c := range registry {
		if c.name == name {
			return true
		}
	}
	return false
}

// Run executes the configured checks over the packages, applies
// //declint:ignore suppressions, and returns the surviving findings sorted
// by position. Malformed suppressions are reported as check "declint".
func Run(pkgs []*Package, cfg Config) ([]Finding, error) {
	enabled := map[string]bool{}
	if len(cfg.Checks) == 0 {
		for _, c := range registry {
			enabled[c.name] = true
		}
	} else {
		for _, name := range cfg.Checks {
			if !KnownCheck(name) {
				return nil, fmt.Errorf("unknown check %q", name)
			}
			enabled[name] = true
		}
	}
	known := map[string]bool{}
	for _, c := range registry {
		known[c.name] = true
	}

	// Suppressions are collected globally before any check runs: module
	// checks report findings in whichever package the offending line lives,
	// which need not be the package that triggered the traversal.
	sup := suppressions{}
	var out []Finding
	for _, pkg := range pkgs {
		psup, bad := collectSuppressions(pkg, known)
		out = append(out, bad...)
		for file, byLine := range psup {
			sup[file] = byLine
		}
	}

	needIndex := false
	for _, c := range registry {
		if enabled[c.name] && c.runModule != nil {
			needIndex = true
		}
	}
	var ix *Index
	if needIndex {
		ix = BuildIndex(pkgs)
	}

	keep := func(fs []Finding) {
		for _, f := range fs {
			if ok, reason := sup.suppressed(f); ok {
				if cfg.IncludeSuppressed {
					f.Suppressed = true
					f.Reason = reason
					out = append(out, f)
				}
				continue
			}
			out = append(out, f)
		}
	}
	for _, c := range registry {
		if !enabled[c.name] {
			continue
		}
		if c.run != nil {
			for _, pkg := range pkgs {
				keep(c.run(pkg, cfg))
			}
		}
		if c.runModule != nil {
			keep(c.runModule(pkgs, cfg, ix))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return out, nil
}
