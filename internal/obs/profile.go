package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	rpprof "runtime/pprof"
	"time"
)

// StartCPUProfile begins a CPU profile written to path and returns a stop
// function that finishes the profile and closes the file. An empty path
// is a no-op.
func StartCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: create cpu profile: %w", err)
	}
	if err := rpprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("obs: start cpu profile: %w", err)
	}
	return func() error {
		rpprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// WriteHeapProfile writes a heap profile to path after a GC, so the
// profile reflects live memory rather than garbage. An empty path is a
// no-op.
func WriteHeapProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: create mem profile: %w", err)
	}
	runtime.GC()
	if err := rpprof.Lookup("heap").WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("obs: write mem profile: %w", err)
	}
	return f.Close()
}

// DebugServer is a running debug HTTP endpoint started by ServeDebug.
type DebugServer struct {
	addr string
	srv  *http.Server
	ln   net.Listener
}

// Addr returns the address the server is listening on (useful with
// ":0"-style requests).
func (d *DebugServer) Addr() string {
	if d == nil {
		return ""
	}
	return d.addr
}

// Close shuts the server down.
func (d *DebugServer) Close() error {
	if d == nil {
		return nil
	}
	return d.srv.Close()
}

// ServeDebug starts an HTTP server on addr exposing the standard debug
// surface:
//
//	/healthz          liveness probe ("ok")
//	/metrics          default registry, Prometheus text format
//	/metrics.json     default registry, JSON snapshot
//	/debug/events     flight-recorder events, NDJSON (?trace=ID filters)
//	/debug/vars       expvar (includes decamouflage.metrics)
//	/debug/pprof/...  net/http/pprof profiles
//
// The handlers live on a private mux so importing obs never mutates
// http.DefaultServeMux. It starts one http.Serve goroutine per debug
// server; DebugServer.Close ends it by closing the listener.
func ServeDebug(addr string) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	PublishExpvar()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := Default.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := Default.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		rec := Events()
		if !rec.Active() {
			http.Error(w, "no flight recorder installed", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		if id := r.URL.Query().Get("trace"); id != "" {
			ev, ok := rec.Find(id)
			if !ok {
				http.Error(w, "no event for trace "+id, http.StatusNotFound)
				return
			}
			if err := json.NewEncoder(w).Encode(&ev); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		if err := rec.WriteNDJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	d := &DebugServer{addr: ln.Addr().String(), srv: srv, ln: ln}
	go srv.Serve(ln)
	return d, nil
}
