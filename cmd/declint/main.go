// Command declint enforces this repository's determinism, concurrency, and
// float-safety invariants with the pure-stdlib analyzers in
// internal/analysis. It exits 0 when the tree is clean, 1 when any finding
// survives suppression, and 2 on usage or load errors.
//
// Usage:
//
//	go run ./cmd/declint ./...            # analyze the whole module
//	go run ./cmd/declint -checks floateq ./...
//	go run ./cmd/declint -list            # list registered checks
//	go run ./cmd/declint internal/analysis cmd/declint
//	                                      # analyze subtrees of the enclosing
//	                                      # module (self-check mode)
//	go run ./cmd/declint path/to/testdata/fixture
//	                                      # analyze a fixture as its own
//	                                      # module root
//	go run ./cmd/declint -json ./...      # machine-readable findings,
//	                                      # suppressed ones included
//	go run ./cmd/declint -github ./...    # GitHub Actions ::error annotations
//	go run ./cmd/declint -waivers ./...   # markdown inventory of every
//	                                      # //declint:ignore currently in
//	                                      # effect (docs/declint_waivers.md)
//
// Findings are reported as file:line:col: check: message. Intentional
// violations are annotated in place with //declint:ignore <check> <reason>.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"decamouflage/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("declint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checksFlag := fs.String("checks", "", "comma-separated subset of checks to run (default: all)")
	listFlag := fs.Bool("list", false, "list registered checks and exit")
	jsonFlag := fs.Bool("json", false, "emit findings as a JSON array (suppressed findings included, marked)")
	githubFlag := fs.Bool("github", false, "emit findings as GitHub Actions ::error annotations")
	waiversFlag := fs.Bool("waivers", false, "emit a markdown inventory of suppressed findings (check, location, reason)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: declint [-checks c1,c2] [-list] [-json|-github|-waivers] [./... | dir ...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listFlag {
		for _, c := range analysis.Checks() {
			fmt.Fprintf(stdout, "%-12s %s\n", c.Name, c.Doc)
		}
		return 0
	}
	exclusive := 0
	for _, on := range []bool{*jsonFlag, *githubFlag, *waiversFlag} {
		if on {
			exclusive++
		}
	}
	if exclusive > 1 {
		fmt.Fprintln(stderr, "declint: -json, -github, and -waivers are mutually exclusive")
		return 2
	}

	cfg := analysis.DefaultConfig()
	if *checksFlag != "" {
		cfg.Checks = strings.Split(*checksFlag, ",")
		// Validate names before the (expensive) module load so a typo fails
		// in milliseconds, with a suggestion when one is close.
		for _, name := range cfg.Checks {
			if analysis.KnownCheck(name) {
				continue
			}
			hint := ""
			if s := closestCheck(name); s != "" {
				hint = fmt.Sprintf(" (did you mean %q?)", s)
			}
			fmt.Fprintf(stderr, "declint: unknown check %q%s; run -list for the inventory\n", name, hint)
			return 2
		}
	}
	// JSON consumers and the waiver inventory see what was waived and why
	// the tree still passes; suppressed findings never affect the exit code.
	cfg.IncludeSuppressed = *jsonFlag || *waiversFlag

	targets := fs.Args()
	if len(targets) == 0 {
		targets = []string{"./..."}
	}
	// Findings are computed once per module root and then filtered per
	// target, so `declint internal/analysis cmd/declint` loads the module a
	// single time.
	byRoot := map[string][]analysis.Finding{}
	var all []analysis.Finding
	active := 0
	for _, target := range targets {
		root, filter, err := resolveTarget(target)
		if err != nil {
			fmt.Fprintln(stderr, "declint:", err)
			return 2
		}
		findings, ok := byRoot[root]
		if !ok {
			pkgs, err := analysis.LoadModule(root)
			if err != nil {
				fmt.Fprintln(stderr, "declint:", err)
				return 2
			}
			findings, err = analysis.Run(pkgs, cfg)
			if err != nil {
				fmt.Fprintln(stderr, "declint:", err)
				return 2
			}
			byRoot[root] = findings
		}
		for _, f := range findings {
			if filter != "" && !underDir(f.Pos.Filename, filter) {
				continue
			}
			all = append(all, f)
			if !f.Suppressed {
				active++
			}
		}
	}

	switch {
	case *jsonFlag:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if all == nil {
			all = []analysis.Finding{}
		}
		if err := enc.Encode(all); err != nil {
			fmt.Fprintln(stderr, "declint:", err)
			return 2
		}
	case *githubFlag:
		for _, f := range all {
			fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d::%s: %s\n",
				relToCwd(f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Check, f.Msg)
		}
	case *waiversFlag:
		writeWaivers(stdout, all)
	default:
		for _, f := range all {
			fmt.Fprintln(stdout, f.String())
		}
	}
	if active > 0 {
		fmt.Fprintf(stderr, "declint: %d finding(s)\n", active)
		return 1
	}
	return 0
}

// writeWaivers renders the suppressed findings as the committed
// docs/declint_waivers.md: one row per //declint:ignore directive currently
// silencing a finding, so every standing exception to the invariants is
// inventoried with its documented reason.
func writeWaivers(w io.Writer, all []analysis.Finding) {
	fmt.Fprintln(w, "# Declint waiver inventory")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Generated by `go run ./cmd/declint -waivers ./... > docs/declint_waivers.md`.")
	fmt.Fprintln(w, "Each row is one `//declint:ignore` directive that currently suppresses a")
	fmt.Fprintln(w, "finding: the check it silences, where, and the reason the directive records.")
	fmt.Fprintln(w, "CI regenerates this file and fails on drift, so the inventory cannot rot.")
	fmt.Fprintln(w)
	n := 0
	for _, f := range all {
		if f.Suppressed {
			n++
		}
	}
	if n == 0 {
		fmt.Fprintln(w, "No waivers are in effect.")
		return
	}
	fmt.Fprintln(w, "| Check | Location | Reason |")
	fmt.Fprintln(w, "|-------|----------|--------|")
	for _, f := range all {
		if !f.Suppressed {
			continue
		}
		fmt.Fprintf(w, "| %s | %s:%d | %s |\n",
			f.Check, relToCwd(f.Pos.Filename), f.Pos.Line, f.Reason)
	}
}

// closestCheck returns the registered check name nearest to name by edit
// distance, or "" when nothing is close enough to be a plausible typo.
func closestCheck(name string) string {
	best, bestDist := "", len(name)/2+1
	for _, c := range analysis.Checks() {
		if d := editDistance(name, c.Name); d < bestDist {
			best, bestDist = c.Name, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance between a and b.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// resolveTarget maps one CLI target to (module root, subtree filter).
// "./..." means the enclosing module, whole. A path with a testdata
// component is a self-contained fixture module analyzed as its own root.
// Any other directory is a subtree of its enclosing go.mod module: the
// module is loaded whole (so cross-package dataflow still sees everything)
// and findings are filtered to the subtree.
func resolveTarget(target string) (root, filter string, err error) {
	if target == "./..." || target == "..." {
		root, err = moduleRoot(".")
		return root, "", err
	}
	abs, err := filepath.Abs(target)
	if err != nil {
		return "", "", err
	}
	info, err := os.Stat(abs)
	if err != nil {
		return "", "", err
	}
	if !info.IsDir() {
		return "", "", fmt.Errorf("target %s is not a directory", target)
	}
	for _, part := range strings.Split(filepath.ToSlash(abs), "/") {
		if part == "testdata" {
			return abs, "", nil
		}
	}
	root, err = moduleRoot(abs)
	if err != nil {
		return "", "", err
	}
	if root == abs {
		return root, "", nil
	}
	return root, abs, nil
}

// underDir reports whether path lies inside dir.
func underDir(path, dir string) bool {
	rel, err := filepath.Rel(dir, path)
	return err == nil && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator))
}

// relToCwd renders path relative to the working directory when possible —
// the form GitHub annotations need to attach to checkout files.
func relToCwd(path string) string {
	cwd, err := os.Getwd()
	if err != nil {
		return path
	}
	rel, err := filepath.Rel(cwd, path)
	if err != nil {
		return path
	}
	return filepath.ToSlash(rel)
}

// moduleRoot walks up from dir to the nearest directory containing go.mod.
func moduleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", abs)
		}
		d = parent
	}
}
