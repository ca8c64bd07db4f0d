package obs

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"
)

// Flags are the observability flags both CLIs declare: -q, -v, -progress,
// -metrics-addr and -trace.
type Flags struct {
	quiet       *bool
	verbose     *bool
	progress    *bool
	metricsAddr *string
	tracePath   *string
}

// NewFlags declares the observability flags on fs.
func NewFlags(fs *flag.FlagSet) *Flags {
	return &Flags{
		quiet:       fs.Bool("q", false, "quiet: print errors and results only"),
		verbose:     fs.Bool("v", false, "verbose: per-step diagnostics (overrides -q)"),
		progress:    fs.Bool("progress", IsTerminal(os.Stderr), "live progress line on stderr (default: on when stderr is a terminal)"),
		metricsAddr: fs.String("metrics-addr", "", "serve live solver counters (expvar) and pprof on this address, e.g. localhost:6060"),
		tracePath:   fs.String("trace", "", "write a JSONL event trace of the run to this file"),
	}
}

// Run is the flags materialized for one run: a leveled logger on stderr, an
// optional JSONL tracer, an optional live progress line and an optional
// metrics listener. Close flushes and tears all of them down.
type Run struct {
	Log      *Logger
	Tracer   Tracer        // nil without -trace (never a typed nil, which would defeat the fast path)
	Progress *ProgressLine // nil without -progress

	jsonl   *JSONLTracer
	traceF  *os.File
	metrics *Server
}

// Start materializes the flags.
func (f *Flags) Start() (*Run, error) {
	level := Normal
	if *f.quiet {
		level = Quiet
	}
	if *f.verbose {
		level = Verbose
	}
	r := &Run{Log: NewLogger(os.Stderr, level)}
	if *f.tracePath != "" {
		file, err := os.Create(*f.tracePath)
		if err != nil {
			return nil, fmt.Errorf("-trace: %w", err)
		}
		r.traceF = file
		r.jsonl = NewJSONLTracer(file)
		r.Tracer = r.jsonl
		r.Log.Debugf("tracing to %s", *f.tracePath)
	}
	if *f.progress {
		r.Progress = NewProgressLine(os.Stderr)
	}
	if *f.metricsAddr != "" {
		srv, addr, err := Serve(*f.metricsAddr)
		if err != nil {
			_ = r.Close() // the listen error wins; teardown is best-effort
			return nil, fmt.Errorf("-metrics-addr: %w", err)
		}
		r.metrics = srv
		r.Log.Infof("metrics: http://%s/metrics  expvar: http://%s/debug/vars  profiles: http://%s/debug/pprof/", addr, addr, addr)
	}
	return r, nil
}

// Close tears the run down; trace write errors surface here.
func (r *Run) Close() error {
	r.Progress.Done()
	var err error
	if r.traceF != nil {
		err = r.jsonl.Err()
		if cerr := r.traceF.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			err = fmt.Errorf("-trace: %w", err)
		}
	}
	if r.metrics != nil {
		// Graceful: let an in-flight /metrics scrape finish, but never
		// stall CLI exit for more than a moment.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = r.metrics.Shutdown(ctx) // best-effort teardown on exit
		cancel()
	}
	return err
}
