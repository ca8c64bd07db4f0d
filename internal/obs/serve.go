package obs

import (
	"context"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Server is a running metrics/profiling HTTP server with a graceful
// shutdown path. Serve starts one; Shutdown (or Close) stops it and waits
// for the listener goroutine to exit, so a CLI that starts a metrics server
// never leaks it past main.
type Server struct {
	http *http.Server
	done chan struct{}
}

// Serve starts an HTTP server on addr exposing live metrics and profiling
// for in-flight sweeps:
//
//	/metrics              — the Default registry as one JSON object
//	                        (counters, gauges, histogram summaries)
//	/debug/vars           — expvar, including the "raha" solver metrics
//	/debug/pprof/...      — net/http/pprof (profile, heap, goroutine, trace)
//
// It returns the server (Shutdown or Close to stop) and the bound address,
// which differs from addr when addr uses port 0. The CLIs wire this behind
// -metrics-addr; `go tool pprof http://ADDR/debug/pprof/profile` attaches
// to a running analysis.
func Serve(addr string) (*Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = Default.WriteJSON(w) // a failed write means the client went away
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s := &Server{
		http: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	return s, ln.Addr().String(), nil
}

// Shutdown stops the server gracefully: the listener closes, in-flight
// requests finish (until ctx expires), and the serve goroutine has exited
// by the time Shutdown returns. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.http.Shutdown(ctx)
	select {
	case <-s.done:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	return err
}

// Close stops the server immediately, dropping in-flight requests, and
// waits for the serve goroutine to exit.
func (s *Server) Close() error {
	err := s.http.Close()
	<-s.done
	return err
}
