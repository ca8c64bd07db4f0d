// Package obs is the repository's zero-dependency observability layer: the
// solve-telemetry discipline a commercial solver's log provides for free,
// rebuilt for the from-scratch stack. It has three sinks:
//
//   - Registry: named atomic counters, snapshottable as JSON and published
//     through expvar (curl /debug/vars during a sweep to watch the solver
//     work). Hot paths hold *Counter pointers, so recording is one atomic
//     add — no map lookup, no lock.
//
//   - Tracer: a structured event stream. The JSONL implementation writes one
//     JSON object per line, whole lines under a mutex, so concurrent
//     branch-and-bound workers never interleave partial records. A nil
//     Tracer is the fast path: every emit site guards with a nil check,
//     which costs a load and a branch (see the overhead benchmark in
//     internal/milp).
//
//   - Progress/Logger: human sinks for the CLIs — a rewriting progress line
//     mirroring a Gurobi solve log, and a quiet/normal/verbose logger.
//     Flags declares the flags both CLIs share (-q, -v, -progress,
//     -metrics-addr, -trace) and Start turns them into these sinks.
//
// Everything here is stdlib-only so the lowest layers (lp, milp) can import
// it without cycles or new dependencies.
package obs
