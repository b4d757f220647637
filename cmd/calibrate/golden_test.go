package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the calibrate goldens from this run")

// TestCalibrateGolden runs the CLI in both modes at `-n 20 -src 64x64
// -dst 16x16 -system-out` and compares its stdout, cal.json and sys.json
// with the committed golden byte for byte. Black-box scoring fans out
// over workers, so CI also runs this test at GOMAXPROCS=1. Regenerate
// with `go test ./cmd/calibrate/ -run TestCalibrateGolden -update` and
// say in the change why the golden moved.
func TestCalibrateGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"whitebox", []string{"-mode", "whitebox"}},
		{"blackbox", []string{"-mode", "blackbox", "-percentile", "2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			golden, err := filepath.Abs(filepath.Join("testdata", tc.name+"_n20_64x64_16x16.golden"))
			if err != nil {
				t.Fatal(err)
			}
			// Relative output paths keep the printed paths the same in
			// every run.
			wd, err := os.Getwd()
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Chdir(t.TempDir()); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { os.Chdir(wd) })
			args := append(tc.args, "-n", "20", "-src", "64x64", "-dst", "16x16",
				"-out", "cal.json", "-system-out", "sys.json")
			stdout := captureStdout(t, func() error { return run(args) })
			var got strings.Builder
			fmt.Fprintf(&got, "== stdout ==\n%s", stdout)
			for _, name := range []string{"cal.json", "sys.json"} {
				data, err := os.ReadFile(name)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&got, "== %s ==\n%s", name, data)
			}
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got.String() != string(want) {
				t.Fatalf("calibrate output differs from %s:\nwant:\n%s\ngot:\n%s", golden, want, got.String())
			}
		})
	}
}

// captureStdout runs fn with os.Stdout sent to a temporary file and
// returns what it wrote.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
