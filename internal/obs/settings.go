package obs

import (
	"fmt"
	"io"
	"os"
	"strings"
)

// Settings is the serializable observability configuration shared by the
// CLIs and SystemConfig. The zero value means "everything off", matching
// the package default.
type Settings struct {
	// Metrics enables recording into the default registry.
	Metrics bool `json:"metrics,omitempty"`
	// MetricsOut is where to dump the registry on Close: a file path, or
	// "-" for stdout. Implies Metrics.
	MetricsOut string `json:"metrics_out,omitempty"`
	// MetricsFormat selects the dump format: "json" (default) or "prom".
	MetricsFormat string `json:"metrics_format,omitempty"`
	// DebugAddr, when non-empty, serves /healthz, /metrics,
	// /debug/events, /debug/vars and /debug/pprof on this address for the
	// life of the session.
	DebugAddr string `json:"debug_addr,omitempty"`
	// CPUProfile and MemProfile are pprof output paths.
	CPUProfile string `json:"cpuprofile,omitempty"`
	MemProfile string `json:"memprofile,omitempty"`

	// EventsOut, when non-empty, installs a flight recorder and dumps its
	// retained wide events as NDJSON on Close: a file path, or "-" for
	// stdout.
	EventsOut string `json:"events_out,omitempty"`
	// EventBuffer sizes the flight-recorder ring (default 1024). A
	// positive value installs a recorder even without EventsOut (events
	// then reachable via /debug/events).
	EventBuffer int `json:"event_buffer,omitempty"`
}

// Session is the running state created by Settings.Apply. Close stops
// profiling, writes any requested dumps, uninstalls the recorder it
// installed, and shuts the debug server down.
type Session struct {
	settings Settings
	stopCPU  func() error
	server   *DebugServer
	recorder *Recorder
}

// DebugAddr returns the bound debug-server address, or "" if none was
// requested.
func (s *Session) DebugAddr() string {
	if s == nil {
		return ""
	}
	return s.server.Addr()
}

// Apply activates the settings: enables metrics recording, starts CPU
// profiling and the debug server. The returned Session must be Closed to
// flush profiles and dumps; Close is safe on a nil Session, so callers
// can unconditionally defer it.
func (s Settings) Apply() (*Session, error) {
	sess := &Session{settings: s}
	if s.Metrics || s.MetricsOut != "" || s.DebugAddr != "" || s.wantRecorder() {
		Enable()
	}
	if s.wantRecorder() {
		sess.recorder = NewRecorder(s.EventBuffer)
		SetRecorder(sess.recorder)
	}
	if s.CPUProfile != "" {
		stop, err := StartCPUProfile(s.CPUProfile)
		if err != nil {
			return nil, err
		}
		sess.stopCPU = stop
	}
	if s.DebugAddr != "" {
		srv, err := ServeDebug(s.DebugAddr)
		if err != nil {
			if sess.stopCPU != nil {
				sess.stopCPU()
			}
			return nil, err
		}
		sess.server = srv
	}
	return sess, nil
}

// wantRecorder reports whether the settings ask for a flight recorder.
func (s Settings) wantRecorder() bool { return s.EventsOut != "" || s.EventBuffer > 0 }

// dump runs write on dst ("-" or "" for stdout), creating the file and
// closing it; what names the dump in the create error.
func dump(dst, what string, write func(io.Writer) error) error {
	if dst == "" || dst == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(dst)
	if err != nil {
		return fmt.Errorf("obs: create %s dump: %w", what, err)
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeMetrics dumps the default registry to w in the configured format.
func (s Settings) writeMetrics(w io.Writer) error {
	switch strings.ToLower(s.MetricsFormat) {
	case "", "json":
		return Default.WriteJSON(w)
	case "prom", "prometheus":
		return Default.WritePrometheus(w)
	default:
		return fmt.Errorf("obs: unknown metrics format %q (want json or prom)", s.MetricsFormat)
	}
}

// DumpMetrics writes the default registry to dst ("-" or "" for stdout)
// using the settings' format.
func (s Settings) DumpMetrics(dst string) error {
	return dump(dst, "metrics", s.writeMetrics)
}

// Close finishes the session: stops CPU profiling, writes the heap
// profile and the metrics/events dumps if requested, uninstalls the
// recorder it installed, and closes the debug server. The first error
// wins but every step runs.
func (s *Session) Close() error {
	if s == nil {
		return nil
	}
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first = err
		}
	}
	if s.stopCPU != nil {
		keep(s.stopCPU())
	}
	keep(WriteHeapProfile(s.settings.MemProfile))
	if s.settings.MetricsOut != "" {
		keep(s.settings.DumpMetrics(s.settings.MetricsOut))
	}
	if s.settings.EventsOut != "" {
		keep(dump(s.settings.EventsOut, "events", s.recorder.WriteNDJSON))
	}
	if s.recorder != nil && Events() == s.recorder {
		SetRecorder(nil)
	}
	keep(s.server.Close())
	return first
}
