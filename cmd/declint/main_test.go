package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"decamouflage/internal/analysis"
)

const fixtures = "../../internal/analysis/testdata"

func runDeclint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestViolatingFixturesExitNonzero: every violating fixture module fails
// with exit 1 and reports the expected check at a file:line position.
func TestViolatingFixturesExitNonzero(t *testing.T) {
	cases := []struct {
		fixture string
		check   string
		file    string
	}{
		{"determinism", "detprop", "bad.go"},
		{"floateq", "floateq", "cmp.go"},
		{"errdrop", "errdrop", "drop.go"},
		{"suppress", "declint", "bad.go"},
		{"hotalloc", "hotalloc", "hot.go"},
		{"detprop", "detprop", "resize.go"},
		{"ctxflow", "ctxflow", "run.go"},
		{"poollife", "poollife", "pool.go"},
		{"memopure", "memopure", "stages.go"},
		{"obscover", "obscover", "stages.go"},
		{"lockorder", "lockorder", "store.go"},
	}
	for _, tc := range cases {
		t.Run(tc.fixture, func(t *testing.T) {
			code, stdout, stderr := runDeclint(t, filepath.Join(fixtures, tc.fixture))
			if code != 1 {
				t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
			}
			if !strings.Contains(stdout, ": "+tc.check+": ") {
				t.Errorf("stdout lacks check %q:\n%s", tc.check, stdout)
			}
			if !strings.Contains(stdout, tc.file+":") {
				t.Errorf("stdout lacks file:line for %s:\n%s", tc.file, stdout)
			}
			if !strings.Contains(stderr, "finding(s)") {
				t.Errorf("stderr lacks the findings summary:\n%s", stderr)
			}
		})
	}
}

// TestChecksFlagScopesRun: -checks with an unrelated check exits clean on a
// fixture that only violates another one.
func TestChecksFlagScopesRun(t *testing.T) {
	code, stdout, _ := runDeclint(t, "-checks", "errdrop", filepath.Join(fixtures, "floateq"))
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s", code, stdout)
	}
	code, stdout, _ = runDeclint(t, "-checks", "floateq", filepath.Join(fixtures, "floateq"))
	if code != 1 || !strings.Contains(stdout, "floateq") {
		t.Fatalf("exit code = %d, want 1 with floateq findings:\n%s", code, stdout)
	}
}

func TestUnknownCheckFlag(t *testing.T) {
	code, _, stderr := runDeclint(t, "-checks", "bogus", filepath.Join(fixtures, "errdrop"))
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown check") {
		t.Errorf("stderr lacks unknown-check error:\n%s", stderr)
	}
}

// TestUnknownCheckSuggestion: a near-miss name earns a did-you-mean hint and
// fails before the module is even loaded (the target does not exist).
func TestUnknownCheckSuggestion(t *testing.T) {
	code, _, stderr := runDeclint(t, "-checks", "lockorders", "no/such/dir")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr, `did you mean "lockorder"?`) {
		t.Errorf("stderr lacks the suggestion:\n%s", stderr)
	}
	code, _, stderr = runDeclint(t, "-checks", "zzzzzz", "no/such/dir")
	if code != 2 || strings.Contains(stderr, "did you mean") {
		t.Errorf("hopeless typo should get no suggestion (code %d):\n%s", code, stderr)
	}
}

// TestListFlag pins the -list output exactly: check names are suppression
// syntax and CI greps this output, so any drift is a deliberate API change.
func TestListFlag(t *testing.T) {
	code, stdout, _ := runDeclint(t, "-list")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	want := strings.Join([]string{
		"floateq      exact ==/!= on float operands",
		"errdrop      _ = discards of error-returning calls",
		"obsonly      profiling/exposition imports outside internal/obs and cmd/",
		"hotalloc     allocations reachable from //declint:hot kernel functions",
		"detprop      time/rand/map-order sources in or reachable from kernel packages",
		"ctxflow      dropped or re-minted contexts in internal library code",
		"poollife     pooled buffers not released exactly once on every path",
		"memopure     memoized stage closures that are not pure functions of their key",
		"obscover     pipeline stages, caches or event emitters missing obs instrumentation",
		"lockorder    lock-order cycles, double-locks, and blocking calls under a held mutex",
		"",
	}, "\n")
	if stdout != want {
		t.Errorf("-list output changed\ngot:\n%s\nwant:\n%s", stdout, want)
	}
}

// TestJSONOutput: -json emits a decodable array carrying suppressed findings
// (marked, not counted) alongside the live ones.
func TestJSONOutput(t *testing.T) {
	code, stdout, _ := runDeclint(t, "-json", filepath.Join(fixtures, "hotalloc"))
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s", code, stdout)
	}
	var findings []analysis.Finding
	if err := json.Unmarshal([]byte(stdout), &findings); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, stdout)
	}
	live, suppressed := 0, 0
	for _, f := range findings {
		if f.Check == "" || f.Pos.Filename == "" || f.Pos.Line == 0 {
			t.Errorf("finding missing fields: %+v", f)
		}
		if f.Suppressed {
			suppressed++
		} else {
			live++
		}
	}
	if live != 6 {
		t.Errorf("live findings = %d, want 6", live)
	}
	if suppressed != 1 {
		t.Errorf("suppressed findings = %d, want 1 (the waived Scratch make)", suppressed)
	}
}

// TestJSONCleanTreeIsEmptyArray: a clean target yields `[]`, not `null`.
func TestJSONCleanTreeIsEmptyArray(t *testing.T) {
	code, stdout, _ := runDeclint(t, "-json", filepath.Join(fixtures, "callgraph"))
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s", code, stdout)
	}
	if strings.TrimSpace(stdout) != "[]" {
		t.Errorf("clean-tree JSON = %q, want []", strings.TrimSpace(stdout))
	}
}

// TestGitHubOutput: -github renders one ::error annotation per finding.
func TestGitHubOutput(t *testing.T) {
	code, stdout, _ := runDeclint(t, "-github", filepath.Join(fixtures, "errdrop"))
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s", code, stdout)
	}
	lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("annotation count = %d, want 2:\n%s", len(lines), stdout)
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "::error file=") ||
			!strings.Contains(line, ",line=") || !strings.Contains(line, "::errdrop: ") {
			t.Errorf("malformed annotation: %s", line)
		}
	}
}

func TestJSONGitHubExclusive(t *testing.T) {
	code, _, stderr := runDeclint(t, "-json", "-github", filepath.Join(fixtures, "errdrop"))
	if code != 2 || !strings.Contains(stderr, "mutually exclusive") {
		t.Fatalf("exit code = %d (stderr %q), want 2 with exclusivity error", code, stderr)
	}
}

// TestWaiversOutput: -waivers renders a markdown row per suppressed finding
// carrying the directive's reason, and ignores live findings.
func TestWaiversOutput(t *testing.T) {
	code, stdout, _ := runDeclint(t, "-waivers", filepath.Join(fixtures, "hotalloc"))
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (live findings still fail)\nstdout:\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "| Check | Location | Reason |") {
		t.Errorf("output lacks the table header:\n%s", stdout)
	}
	rows := 0
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, "| hotalloc |") {
			rows++
			if !strings.Contains(line, "hot.go:29") ||
				!strings.Contains(line, "setup-time cold path, called once per plan") {
				t.Errorf("waiver row lacks location or reason: %s", line)
			}
		}
	}
	if rows != 1 {
		t.Errorf("hotalloc waiver rows = %d, want 1:\n%s", rows, stdout)
	}
	code, stdout, _ = runDeclint(t, "-waivers", filepath.Join(fixtures, "callgraph"))
	if code != 0 || !strings.Contains(stdout, "No waivers are in effect.") {
		t.Fatalf("clean tree: code=%d, want 0 with empty inventory\n%s", code, stdout)
	}
	code, _, stderr := runDeclint(t, "-waivers", "-json", filepath.Join(fixtures, "errdrop"))
	if code != 2 || !strings.Contains(stderr, "mutually exclusive") {
		t.Fatalf("-waivers -json: code=%d (stderr %q), want 2", code, stderr)
	}
}

// TestSubtreeTargets: a non-testdata directory is analyzed as a subtree of
// its enclosing module — the whole module loads (dataflow checks need the
// full graph) but findings and exit status are scoped to the subtree. Two
// subtree targets of the same module share one load.
func TestSubtreeTargets(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the entire enclosing module")
	}
	code, stdout, stderr := runDeclint(t, ".", "../../internal/analysis")
	if code != 0 {
		t.Fatalf("self-check exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if stdout != "" {
		t.Errorf("self-check produced findings:\n%s", stdout)
	}
}
