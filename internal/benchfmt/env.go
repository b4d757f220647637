package benchfmt

// Environment records where a benchmark run was produced. perfbench
// prints it on the `env` line of every run, and each entry of the
// committed bench/BENCH_<date>.json record carries it, so a reader can
// tell numbers from different machines apart.
type Environment struct {
	// GOOS/GOARCH are the platform the benchmarks ran on.
	GOOS   string `json:"goos,omitempty"`
	GOARCH string `json:"goarch,omitempty"`
	// GOMAXPROCS is the scheduler width at run time — parallel kernels
	// scale with it, so differing values are not comparable.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
	// CPU is the processor model string (from /proc/cpuinfo on Linux);
	// empty when the platform does not expose one.
	CPU string `json:"cpu,omitempty"`
	// GoVersion is the toolchain that built the benchmarks.
	GoVersion string `json:"go_version,omitempty"`
}
