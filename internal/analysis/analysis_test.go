package analysis

import (
	"fmt"
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// loadFixture loads one testdata mini-module and returns its findings
// formatted as "relpath:line check", the form the golden tables pin.
func loadFixture(t *testing.T, name string, cfg Config) []string {
	t.Helper()
	root := filepath.Join("testdata", name)
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule(%s): %v", root, err)
	}
	findings, err := Run(pkgs, cfg)
	if err != nil {
		t.Fatalf("Run(%s): %v", root, err)
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(findings))
	for _, f := range findings {
		rel, err := filepath.Rel(abs, f.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%s:%d %s", filepath.ToSlash(rel), f.Pos.Line, f.Check))
	}
	return out
}

// TestGoldenFindings drives every fixture module through the default
// config and pins the exact finding set: violating files are reported at
// the right line with the right check name, clean and suppressed variants
// stay silent, exempt packages and test files are skipped.
func TestGoldenFindings(t *testing.T) {
	cases := []struct {
		fixture string
		want    []string
	}{
		{
			fixture: "determinism",
			want: []string{
				"internal/scaling/bad.go:12 detprop", // time.Now
				"internal/scaling/bad.go:13 detprop", // math/rand use
				"internal/scaling/bad.go:19 detprop", // map-ordered append
				"internal/scaling/bad.go:35 detprop", // time.Now in a package-level var
				"internal/scaling/bad.go:40 detprop", // map-ordered append in a var initializer
				// SumValues (pure accumulation), sorted.go (annotated),
				// bad_test.go (test file), eval/clock.go (unscoped) are silent.
			},
		},
		{
			fixture: "floateq",
			want: []string{
				"internal/metrics/cmp.go:6 floateq",      // float64 ==
				"internal/metrics/cmp.go:11 floateq",     // float32 !=
				"internal/metrics/cmp_test.go:8 floateq", // tests are covered
				// ZeroGuard is annotated; testutil is allowlisted; int == is fine.
			},
		},
		{
			fixture: "errdrop",
			want: []string{
				"internal/report/drop.go:17 errdrop", // _ = mayFail()
				"internal/report/drop.go:18 errdrop", // _, _ = twoVals()
				// line 20 is annotated; Sprintf returns no error; tests exempt.
			},
		},
		{
			fixture: "obsonly",
			want: []string{
				"internal/steg/prof.go:6 obsonly", // expvar in a kernel package
				"internal/steg/prof.go:7 obsonly", // runtime/pprof likewise
				// internal/obs and cmd/tool are exempt; suppressed.go is
				// annotated. The obs fixture's tag-gated const pair also pins
				// the loader's build-constraint skip: parsing both variants
				// would fail type-checking with a redeclaration.
			},
		},
		{
			fixture: "hotalloc",
			want: []string{
				"internal/filtering/hot.go:21 hotalloc",  // make in hot Window
				"internal/filtering/hot.go:36 hotalloc",  // closure in hot Apply
				"internal/filtering/hot.go:46 hotalloc",  // boxing in hot Report
				"internal/filtering/u8.go:26 hotalloc",   // per-call histogram in hot HistMedianU8
				"internal/filtering/u8.go:46 hotalloc",   // append growth in hot CollectRunsU8
				"internal/kernels/kernels.go:7 hotalloc", // reachable from hot Sweep
				// Scratch is suppressed with a reason; Clean is allocation-free;
				// Cold is unmarked; SlideMinU8 reuses the caller's wedge.
			},
		},
		{
			fixture: "detprop",
			want: []string{
				"internal/scaling/resize.go:14 detprop", // two hops to time.Now
				"internal/scaling/resize.go:23 detprop", // one hop to math/rand
				// Traced reaches the clock only through the exempt obs barrier.
			},
		},
		{
			fixture: "ctxflow",
			want: []string{
				"internal/detect/run.go:22 ctxflow", // step never uses ctx
				"internal/detect/run.go:28 ctxflow", // unexported mint of Background
				"internal/detect/run.go:36 ctxflow", // fork re-mints despite receiving ctx
				// Run is an exported root; scan threads; skip names its param _.
			},
		},
		{
			fixture: "poollife",
			want: []string{
				"internal/bufpool/pool.go:35 poollife",   // Leak: never released
				"internal/bufpool/pool.go:42 poollife",   // EarlyLeak: error path leaks
				"internal/bufpool/pool.go:52 poollife",   // Double: second transfers release
				"internal/bufpool/pool.go:59 poollife",   // DoubleDirect: second Put
				"internal/bufpool/pool.go:67 poollife",   // DeferredDouble: Put under pending defer
				"internal/bufpool/pool.go:74 poollife",   // UseAfter: read after Put
				"internal/bufpool/pool.go:82 poollife",   // Stash: escape into package state
				"internal/bufpool/pool.go:88 poollife",   // Overwrite: rebind while live
				"internal/bufpool/pool.go:96 poollife",   // LoopFree: release inside loop body
				"internal/bufpool/pool.go:104 poollife",  // Discard: owned result dropped
				"internal/bufpool/pool.go:111 poollife",  // fabricate: owns claim unbacked
				"internal/bufpool/pool.go:116 poollife",  // vanish: transfers claim unbacked
				"internal/bufpool/pool.go:120 poollife",  // overclaim: result index out of range
				"internal/parallel/spawn.go:13 poollife", // Spawn: goroutine capture
				// Clean, NilGuarded, and ErrPath release on every path: silent.
			},
		},
		{
			fixture: "memopure",
			want: []string{
				"internal/detect/stages.go:62 memopure",  // Sum: captured write
				"internal/detect/stages.go:74 memopure",  // Count: package-level write
				"internal/detect/stages.go:84 detprop",   // Stamp: time.Now in a kernel pkg...
				"internal/detect/stages.go:84 memopure",  // ...and inside a stage closure
				"internal/detect/stages.go:93 detprop",   // Tag: kernel chain to the clock...
				"internal/detect/stages.go:93 memopure",  // ...reached from a stage closure
				"internal/detect/stages.go:102 memopure", // Bump: reaches a global write
				// Gray is pure; obs.StartStage is behind the exempt barrier.
			},
		},
		{
			fixture: "obscover",
			want: []string{
				"internal/detect/stages.go:36 obscover", // bare: NewLRU with nil stats
				"internal/detect/stages.go:52 obscover", // Spectrum: no span at all
				"internal/detect/stages.go:60 obscover", // Blur: span with nil histogram
				// Gray and wired are fully instrumented: silent.
			},
		},
		{
			fixture: "eventspan",
			want: []string{
				"internal/detect/emit.go:17 obscover", // Untraced: no span at all
				"internal/detect/emit.go:23 obscover", // Late: span opened after the event
				// Traced is covered; Waived is annotated; the obs package's
				// own watchdog emitter is exempt.
			},
		},
		{
			fixture: "lockorder",
			want: []string{
				"internal/store/audit.go:31 lockorder", // UnderB: undeclared muB -> muA edge
				"internal/store/audit.go:37 lockorder", // Idle: unbacked locks-after claim
				"internal/store/store.go:28 lockorder", // BA: closes the muA/muB cycle
				"internal/store/store.go:51 lockorder", // Grow -> Size reacquires mu
				"internal/store/store.go:58 lockorder", // Nap: time.Sleep under mu
				"internal/store/store.go:65 lockorder", // Drain: WaitGroup.Wait under mu
				"internal/store/store.go:70 lockorder", // Drop: unlock without a lock
				"internal/store/store.go:83 lockorder", // Twice: double lock after an all-break select
				// AB alone is clean; UnderA's cross-function edge is declared
				// with locks-after on lockB.
			},
		},
		{
			fixture: "pathwalk",
			want: []string{
				"internal/flow/conc.go:37 lockorder", // BreakUnlock: lock held on the break path only
				"internal/flow/conc.go:46 lockorder", // SwitchDoubleLock: relock in a case
				"internal/flow/conc.go:59 lockorder", // TypeSwitchUnlock: lock held on one arm only
				"internal/flow/conc.go:94 lockorder", // ExitArm: os.Exit ends its path
				"internal/flow/pool.go:36 poollife",  // BreakLeak: live at break
				"internal/flow/pool.go:50 poollife",  // LabeledBreak: live at break outer
				"internal/flow/pool.go:69 poollife",  // SwitchNoDefault: no case may match
				"internal/flow/pool.go:79 poollife",  // TypeSwitchDouble: second release on default
				"internal/flow/pool.go:91 poollife",  // SelectDefault: default arm leaks
				"internal/flow/pool.go:133 poollife", // LabeledContinue: live at continue outer
				// ContinueClean, ContinueUnlock, SelectAll, SelectCloseSend,
				// PanicArm and PanicClose are clean; Goto and GotoLock pin
				// that goto ends the path.
			},
		},
		{
			fixture: "suppress",
			want: []string{
				"internal/scaling/bad.go:7 declint",  // directive names no check
				"internal/scaling/bad.go:8 floateq",  // ...so nothing is silenced
				"internal/scaling/bad.go:13 declint", // unknown check name
				"internal/scaling/bad.go:14 floateq",
				"internal/scaling/bad.go:20 declint", // missing reason
				"internal/scaling/bad.go:21 floateq",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			got := loadFixture(t, tc.fixture, DefaultConfig())
			if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
				t.Errorf("findings mismatch\ngot:\n  %s\nwant:\n  %s",
					strings.Join(got, "\n  "), strings.Join(tc.want, "\n  "))
			}
		})
	}
}

// TestCheckSubset: restricting cfg.Checks runs only the named checks,
// while suppression hygiene (check "declint") is always enforced.
func TestCheckSubset(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Checks = []string{"errdrop"}
	got := loadFixture(t, "suppress", cfg)
	want := []string{
		"internal/scaling/bad.go:7 declint",
		"internal/scaling/bad.go:13 declint",
		"internal/scaling/bad.go:20 declint",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestUnknownCheckRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Checks = []string{"nosuchcheck"}
	pkgs, err := LoadModule(filepath.Join("testdata", "errdrop"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(pkgs, cfg); err == nil {
		t.Fatal("Run accepted an unknown check name")
	}
}

func TestRegistry(t *testing.T) {
	want := []string{
		"floateq", "errdrop", "obsonly",
		"hotalloc", "detprop", "ctxflow",
		"poollife", "memopure", "obscover",
		"lockorder",
	}
	checks := Checks()
	if len(checks) != len(want) {
		t.Fatalf("registry has %d checks, want %d", len(checks), len(want))
	}
	for i, c := range checks {
		if c.Name != want[i] {
			t.Errorf("check %d = %s, want %s", i, c.Name, want[i])
		}
		if c.Doc == "" {
			t.Errorf("check %s has no doc", c.Name)
		}
		if !KnownCheck(c.Name) {
			t.Errorf("KnownCheck(%s) = false", c.Name)
		}
	}
	if KnownCheck("bogus") {
		t.Error("KnownCheck(bogus) = true")
	}
}

// TestLoadExternalTestSeesExportTest: as under go test, an external test
// package imports its package together with the in-package test files, so
// a name an export_test.go file declares type-checks.
func TestLoadExternalTestSeesExportTest(t *testing.T) {
	pkgs, err := LoadModule(filepath.Join("testdata", "exporttest"))
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	if got := strings.Join(paths, " "); got != "exporttest/internal/lib exporttest/internal/lib_test" {
		t.Fatalf("units = %q", got)
	}
}

// TestLoadKeepsOneArchVariant loads a package whose kernelWidth is
// declared once per architecture (kern_amd64.go, and kern_other.go under
// //go:build !amd64) and once more behind a tag (//go:build debugkern).
// The loader keeps the files `go build` compiles for the target, so the
// package type-checks with one declaration on every GOARCH.
func TestLoadKeepsOneArchVariant(t *testing.T) {
	pkgs, err := LoadModule(filepath.Join("testdata", "archfiles"))
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d units, want 1", len(pkgs))
	}
	var names []string
	for _, f := range pkgs[0].Files {
		names = append(names, filepath.Base(f.Filename))
	}
	want := "kern_other.go lib.go"
	if build.Default.GOARCH == "amd64" {
		want = "kern_amd64.go lib.go"
	}
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("files = %q, want %q", got, want)
	}
}
