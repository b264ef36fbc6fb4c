package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// The debug HTTP endpoint: Prometheus text-format /metrics from the
// registry, /healthz and /runz JSON snapshots from caller-supplied
// closures, and net/http/pprof under /debug/pprof/. The server binds
// first and serves in a background goroutine, so callers (and tests)
// learn the bound address synchronously and the run is never blocked.

// DebugServer is one bound debug endpoint.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// NewMux assembles the debug handler set. healthz and runz supply the
// JSON bodies of their endpoints; either may be nil (the endpoint then
// answers with a minimal liveness object).
func NewMux(reg *Registry, healthz, runz func() any) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(v)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if healthz != nil {
			writeJSON(w, healthz())
			return
		}
		writeJSON(w, map[string]any{"status": "ok"})
	})
	mux.HandleFunc("/runz", func(w http.ResponseWriter, r *http.Request) {
		if runz != nil {
			writeJSON(w, runz())
			return
		}
		writeJSON(w, map[string]any{"status": "no run"})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// StartDebug binds addr (host:port; an empty host means all interfaces,
// port 0 means ephemeral) and serves the debug mux in the background.
func StartDebug(addr string, reg *Registry, healthz, runz func() any) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listen %s: %w", addr, err)
	}
	s := &DebugServer{
		ln:  ln,
		srv: &http.Server{Handler: NewMux(reg, healthz, runz)},
	}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr is the bound address (useful with an ephemeral port).
func (s *DebugServer) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the server down.
func (s *DebugServer) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
