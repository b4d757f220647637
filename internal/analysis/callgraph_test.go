package analysis

import (
	"path/filepath"
	"reflect"
	"testing"
)

// loadIndex builds the call-graph index over one fixture module.
func loadIndex(t *testing.T, name string) *Index {
	t.Helper()
	pkgs, err := LoadModule(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("LoadModule(%s): %v", name, err)
	}
	return BuildIndex(pkgs)
}

// TestCallGraphEdges pins how the index resolves each call shape: plain
// static calls, calls through func-typed locals with multiple candidates,
// method values, interface dispatch to every module-defined implementer,
// cross-package edges, and mutual recursion.
func TestCallGraphEdges(t *testing.T) {
	ix := loadIndex(t, "callgraph")
	const g = "callgraph/internal/graph."

	impls := ix.Implementers("iface:" + g + "Scorer.Score")
	wantImpls := []string{g + "(Linear).Score", g + "(Offset).Score"}
	if !reflect.DeepEqual(impls, wantImpls) {
		t.Errorf("Implementers(Scorer.Score) = %v, want %v", impls, wantImpls)
	}

	cases := []struct {
		root string
		want []string // exact sorted reachable set, root included
	}{
		{ // interface dispatch fans out to every implementer
			root: g + "Eval",
			want: []string{g + "(Linear).Score", g + "(Offset).Score", g + "Eval"},
		},
		{ // func-typed local bound to two candidates reaches both
			root: g + "Apply",
			want: []string{g + "Apply", g + "Double", g + "Halve"},
		},
		{ // method value resolves to the concrete method
			root: g + "Bind",
			want: []string{g + "(Linear).Score", g + "Bind"},
		},
		{ // mutual recursion terminates and covers the cycle
			root: g + "Even",
			want: []string{g + "Even", g + "Odd"},
		},
		{
			root: g + "Odd",
			want: []string{g + "Even", g + "Odd"},
		},
		{ // cross-package static edge plus the interface fan-out behind it
			root: "callgraph/internal/score.Best",
			want: []string{
				g + "(Linear).Score", g + "(Offset).Score", g + "Eval",
				"callgraph/internal/score.Best",
			},
		},
	}
	for _, tc := range cases {
		if got := ix.Reachable(tc.root); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Reachable(%s) = %v, want %v", tc.root, got, tc.want)
		}
	}

	for _, id := range []string{g + "Eval", g + "(Offset).Score", "callgraph/internal/score.Best"} {
		if ix.Funcs[id] == nil {
			t.Errorf("index has no summary for %s", id)
		}
	}
	if ids := ix.IDs(); !sortedStrings(ids) {
		t.Errorf("IDs() not sorted: %v", ids)
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			return false
		}
	}
	return true
}
