#!/bin/sh
# ci.sh — the repository's verification gate: format check, vet, build, the
# full test suite under the race detector (the branch-and-bound worker pool
# and the sweep fan-outs are concurrent code; plain `go test` would not
# exercise their synchronization), the benchmark module's oracle smokes, and
# a one-iteration pass over the layer benchmarks. Performance regressions are
# not gated here: that is `bash bench/run.sh --sets 10` on the parent and the
# change plus `--compare` (bench/README.md), and nothing else.
#
# Extra arguments pass through to `go test`, e.g.:
#
#	./ci.sh -short          # trim the slow property-test corpus
#	./ci.sh -run TestRandom # one test across all packages
set -eu
cd "$(dirname "$0")"

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: needs formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

# go vet's copylocks check is the repository's mutex-copy check: a
# sync.Mutex, RWMutex or WaitGroup received or passed by value fails here.
go vet ./...
go build ./...

# Retired names must not drift back in: the solver has one scheduler, one
# branching rule and warm starts always, one LP core with no switch (process
# global or environment variable) to pick another, a worker count is one
# `Workers` budget per layer split by conc.Split — no routing policy, no
# second per-solve field — and each solver counter is declared once, as a
# tagged milp.Stats field, with no shadow accumulator. Presolve is always on
# outside internal/milp's own tests (their switch is the unexported
# disablePresolve), so no config or CLI re-lists a public one. The five lint
# rules that never fired are gone too, so a fixture marker or allow
# directive naming one is stale. The grep reads _test.go files too, on
# purpose.
if grep -rn 'QueueShared\|DisableWarmStart\|BranchMostFractional\|RAHA_LP_DENSE\|SetDense\|denseMode\|ParallelPolicy\|conc\.Policy\|PolicyScenarios\|PolicyIntraSolve\|SolverWorkers\|sweepParallel\|statsAcc\|DisablePresolve\|lock-order\|goroutine-leak\|ctx-first\|mutex-value\|tracer-guard' --include='*.go' --exclude-dir=.bench_build .; then
	echo "ci: retired solver knob or lint rule referenced above" >&2
	exit 1
fi

# And the dense tableau stays on the test side: no binary may link it.
tmp=$(mktemp -d /tmp/raha-ci.XXXXXX)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/raha" ./cmd/raha
if go tool nm "$tmp/raha" | grep -q 'lp\.solveDense\|lp\.(\*tableau)'; then
	echo "ci: cmd/raha links the dense LP referee (internal/lp/dense_ref_test.go belongs to the tests)" >&2
	exit 1
fi

# Project-specific analyzer suite (cmd/raha-lint → internal/lint): five
# rules — float-cmp, hot-loop-time (wall-clock or randomness in solver
# loops), atomic-mix (a field reached both atomically and plainly,
# whole-program), hot-alloc (allocation sites in solver loops) and err-drop.
# Mutex copies are go vet's, above. Runs over the full tree including
# _test.go files; any finding fails the build (suppressions need a
# //raha:lint-allow with a reason). -json keeps a machine-readable record on
# stdout while the file:line findings still land on stderr for the failure
# log.
go run ./cmd/raha-lint -json ./... >/dev/null

# -shuffle=on randomizes test order within each package so inter-test state
# leaks cannot hide behind a fixed execution order (the seed is printed on
# failure for reproduction).
go test -race -shuffle=on "$@" ./...

# Ten seconds of native fuzzing on the Topology Zoo GML parser, seeded from
# the committed fixture corpus: a crash or invariant violation found here
# fails the build before it can land (the full campaigns run on demand with
# a longer -fuzztime).
go test ./internal/topology -run '^$' -fuzz '^FuzzParseGML$' -fuzztime 10s

# The random-MILP corpus once more with presolve and domain propagation
# switched off: the pre-reduction solver must stay correct on its own, so a
# presolve bug can never hide behind the reductions (and vice versa).
go test ./internal/milp -run 'TestRandomMILPsAgainstBruteForce' -short -presolve=off

# (The dense LP referee needs no pass of its own: it runs inside ./internal/lp's tests in the -race pass above.)

# The benchmark module (bench/, its own go.mod, so `./...` above does not
# reach it): vet, its tests at the scaled-down -short workloads — the oracle,
# the manifest-vs-BENCHMARK.json pin, the compare rule — and the same
# analyzer suite. It measures this tree through the public entry points, so
# a change here that breaks its build or its pinned answers fails CI rather
# than the next benchmark run.
(cd bench && go vet . && go test -short . && go run raha/cmd/raha-lint -json ./... >/dev/null)

# The four benchmark workloads themselves, 3 s each, through the entry point
# BENCHMARK.json names: every result line must say "correct":true (the
# re-simulation oracle and the pinned answers hold on this tree) and
# "failed":0. A solver change that returns a wrong or worse scenario is
# refused by the benchmark pipeline after the fact; this makes it a
# pre-merge failure instead. b4_budget is also the width-1 search-order
# guard: its pinned degradation is only reached inside the 1 s budget by the
# lone worker's best-bound order (a LIFO dive at width 1 fails its oracle).
# Two of its three instances end `optimal` inside the budget — instance 4 in
# 64 nodes now that the lost-capacity bound caps every node, instance 6 at
# its first incumbent (DESIGN.md §2.1); instance 5 still runs its second.
smoke() {
	line=$(timeout 180 bash bench/run.sh --workload "$@" --seed 1 --seconds 3 --trace 0 | tail -n 1)
	case $line in
	*'"correct":true'*'"failed":0'*) ;;
	*)
		echo "bench smoke: workload $*: $line" >&2
		exit 1
		;;
	esac
}
for w in uninett_optimal b4_budget africa_fixed fleet_sweep; do
	smoke "$w"
done
# And the named hang: Uninett at --shift 1 is the instance on which the dual
# simplex once retried one pivot for ever (DESIGN.md §2.13, internal/lp
# TestDualRetryTerminates). Every smoke runs under a timeout, so a solver
# that stops terminating fails CI instead of blocking it.
smoke uninett_optimal --shift 1

# Static model check over a real paper model: -check runs the
# internal/modelcheck diagnostic pass before the solve and exits non-zero
# on any error-severity diagnostic, so a regression in the §5 encodings
# (NaN Big-M, contradictory bounds, trivially infeasible rows) fails CI
# even if the solver would have limped through.
go run ./cmd/raha analyze -topology b4 -check -budget 2s -q -progress=false >/dev/null

# The lost-capacity bound closing an analysis outright, deterministic and
# clock-free: on a three-link line no single failure is as probable as 1e-3,
# so the budget knapsack's optimum is 0, the all-up scenario is the answer,
# and no model is built — a budget_bound event with closed:true and not one
# branch-and-bound node in the trace.
closed_tmp=$tmp/closed.jsonl
go run ./cmd/raha analyze -topology internal/topology/testdata/line4.gml -pairs 4 -slack 0.3 \
	-threshold 1e-3 -workers 1 -trace "$closed_tmp" -q -progress=false >/dev/null
if ! grep '"ev":"budget_bound"' "$closed_tmp" | grep -q '"closed":true' ||
	grep -q '"layer":"milp","ev":"node"' "$closed_tmp"; then
	echo "ci: line4 was not closed by the budget bound (want budget_bound closed:true, no milp node event):" >&2
	cat "$closed_tmp" >&2
	exit 1
fi

# The same bound at every branch-and-bound node, also clock-free: a serial
# variable-demand B4 analysis runs to proven optimality (about 0.4 s of its
# 60 s budget), and its main solve — the trace's last solve_end — must have
# discarded children on the lost-capacity bound of their boxes. It must also
# carry pruned_bound, a key only the Stats field tags put on solve_end.
budget_tmp=$tmp/budget.jsonl
go run ./cmd/raha analyze -topology b4 -workers 1 -budget 60s -trace "$budget_tmp" -q -progress=false >/dev/null
last_end=$(grep '"ev":"solve_end"' "$budget_tmp" | tail -n 1)
if ! printf %s "$last_end" | grep -q '"budget_prunes":[1-9]' ||
	! printf %s "$last_end" | grep -q '"pruned_bound":' ||
	! printf %s "$last_end" | grep -q '"status":"optimal"'; then
	echo "ci: b4 did not end optimal with budget_prunes > 0 and a pruned_bound count: $last_end" >&2
	exit 1
fi

# The paper-evaluation command, end to end through the experiment registry
# (internal/experiments): the three entries no clock bounds — Figure 1 on its
# four-node network, Figure 2 on AfricaWAN, and max-min, whose analyses prove
# optimality in under 0.3 s of their 3 s budget at one worker — must write
# non-empty CSVs and uphold their paper claims (a violated claim exits
# non-zero), and a misspelled -only name must be refused rather than match
# nothing. The mlu entry stays out: its analyses run out their 3 s budget at
# `feasible`, so its CSV depends on the clock.
go run ./cmd/raha-experiments -only figure1,figure2,maxmin -out "$tmp/exp" -q -progress=false
for f in figure1 figure2 maxmin; do
	if [ ! -s "$tmp/exp/$f.csv" ]; then
		echo "ci: raha-experiments wrote no $f.csv" >&2
		exit 1
	fi
done
if go run ./cmd/raha-experiments -only nosuch -out "$tmp/exp" -q -progress=false 2>/dev/null; then
	echo "ci: raha-experiments -only nosuch exited 0" >&2
	exit 1
fi

# Whole-fleet batch alerting smoke: sweep the fixture corpus (which includes
# two deliberately poisoned files) end to end through the CLI. The sweep
# must exit 0 with the failures recorded as partial results — a regression
# in the fault isolation turns them into a non-zero exit and fails CI here.
# The second pass gives the ten fixtures a budget of 32 workers, so the
# leftover goes inside each solve: the sweep-over-wide-solves path, end to
# end. And the routing flag that used to select that is gone, not ignored,
# as is the presolve switch both CLIs once carried.
for w in 0 32; do
	go run ./cmd/raha alert -all -builtins=false -zoo-dir internal/topology/testdata \
		-grid 'k=1;p=1e-3;d=peak' -budget-per-topo 10s -workers "$w" -q -progress=false >/dev/null
done
undefined_flag() {
	if out=$(go run "$@" 2>&1) || ! printf %s "$out" | grep -q 'flag provided but not defined'; then
		echo "ci: $* was not rejected as an undefined flag: $out" >&2
		exit 1
	fi
}
undefined_flag ./cmd/raha alert -all -builtins=false -zoo-dir internal/topology/testdata -parallelism auto
undefined_flag ./cmd/raha analyze -presolve off
undefined_flag ./cmd/raha-experiments -presolve off

# Trace-analysis smoke: a real traced solve must round-trip through
# raha-trace. summarize exits non-zero on a malformed trace or one with
# zero attributed time, workers on missing per-worker data — so a schema
# drift between the solver's emit sites and the analyzer fails CI here.
# The workers pass doubles as the width > 1 scheduler health gate: a 4-worker
# B4 analysis must record successful steals (work actually moved between
# workers) and keep the summed idle share under 50% (workers spent their
# time searching, not spinning in steal backoff).
trace_tmp=$tmp/trace.jsonl
go run ./cmd/raha analyze -topology b4 -budget 5s -workers 4 \
	-trace "$trace_tmp" -q -progress=false >/dev/null
go run ./cmd/raha-trace summarize "$trace_tmp" >/dev/null
go run ./cmd/raha-trace workers -require-steals -max-idle 50 "$trace_tmp" >/dev/null
go run ./cmd/raha-trace tree "$trace_tmp" >/dev/null
go run ./cmd/raha-trace diff "$trace_tmp" "$trace_tmp" >/dev/null

# One iteration of every layer benchmark, written nowhere: a smoke that they
# still compile and run, not a measurement (see the header). The full
# paper-scale sweeps are `go run ./cmd/raha-experiments` and run only on
# demand.
go test -run '^$' -bench . -benchtime 1x ./internal/... >/dev/null
