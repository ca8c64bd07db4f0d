#!/bin/sh
# ci.sh — the repository's verification gate: format check, vet, build, the
# full test suite under the race detector (the branch-and-bound worker pool
# and the sweep fan-outs are concurrent code; plain `go test` would not
# exercise their synchronization), the benchmark module's oracle smokes, a
# run of every example, and a one-iteration pass over the layer benchmarks.
# Performance regressions are not gated here: that is `bash bench/run.sh
# --sets 10` on the parent and the change plus `--compare` (bench/README.md),
# and nothing else.
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
# sync.Mutex, RWMutex, WaitGroup or typed atomic received, passed or copied
# by value fails here.
go vet ./...
go build ./...

# Retired names must not drift back in: the solver has one scheduler, one
# branching rule and warm starts always, one LP core with no switch (process
# global or environment variable) to pick another, a worker count is one
# `Workers` budget per layer split by conc.Split — no routing policy, no
# second per-solve field — and each solver counter is declared once, as a
# tagged milp.Stats field, with no shadow accumulator. Presolve is always on
# outside internal/milp's own tests (their switch is the unexported
# disablePresolve), so no config or CLI re-lists a public one. So is the
# auto-width probe above width 1 (the tests' switch is fixedWidth), and no
# solve runs the model checker: it is a test oracle in internal/metaopt's
# tests over *milp.Model, with no package (raha/internal/modelcheck), gate,
# error type, facade alias or trace event of its own. The five lint
# rules that never fired are gone too, so a fixture marker or allow
# directive naming one is stale. Pseudocosts are trusted from their first
# observation, with no reliability threshold to tune, and the integrality
# tolerance is the constant tol.Int, not a parameter. Both augment forms
# share one loop and one Result, and Appendix C's edge form lives in the
# new-LAG augment MILP only. Options no caller set are constants: the MLU
# and max-min dual box, the max-min binner's shape, the added link capacity
# (always the mean member-link capacity), the model checker's tolerances;
# an analysis warm-starts from one earlier Result; and helpers only tests
# called (inverse-capacity weights, a one-line wrapper over the budget
# knapsack) are gone. An experiment spends its worker budget through
# conc.Stage, with no stage planner of its own (.plan), and every analysis
# goes through one Setup.analyze, with no clustered twin (analyzeClustered).
# The linter has no cross-package step: no fact store (.Facts), no field
# keys (fieldKey, underStruct). Hop distances are topology.Hops, with no
# private BFS copy (bfsHops, bfsDistances).
# The grep reads _test.go files too, on purpose.
if grep -rn 'p\.IntTol\|Params{[^}]*IntTol\|pcReliability\|QueueShared\|DisableWarmStart\|BranchMostFractional\|RAHA_LP_DENSE\|SetDense\|denseMode\|ParallelPolicy\|conc\.Policy\|PolicyScenarios\|PolicyIntraSolve\|SolverWorkers\|sweepParallel\|statsAcc\|DisablePresolve\|CheckError\|ModelCheck\|ModelDiagnostic\|runCheck\|model_check\|AutoWidth:\|\.AutoWidth\b\|lock-order\|goroutine-leak\|ctx-first\|mutex-value\|tracer-guard\|EdgeFormMaxFlow\|NewLAGResult\|NewLAGStep\|MLUDualBound\|MaxMinBinner\|WarmStartScenario\|WarmStartDemands\|modelcheck\.Options\|InverseCapacityWeight\|LostCapacityBound\|\bLinkCapacity\b\|analyzeClustered\|\.plan(\|fieldKey\|underStruct\|\.Facts(\|bfsHops\|bfsDistances\|raha/internal/modelcheck' --include='*.go' --exclude-dir=.bench_build .; then
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
# per-file rules — float-cmp, hot-loop-time (wall-clock or randomness in
# solver loops), atomic-mix (a sync/atomic package function on an untyped
# word: shared words are typed atomics, which the compiler keeps from plain
# access), hot-alloc (allocation sites in solver loops) and err-drop.
# Copies of a mutex or a typed atomic are go vet's, above. Runs over the
# full tree including _test.go files; any finding fails the build
# (suppressions need a //raha:lint-allow with a reason). -json keeps a
# machine-readable record on stdout while the file:line findings still land
# on stderr for the failure log.
go run ./cmd/raha-lint -json ./... >/dev/null

# -shuffle=on randomizes test order within each package so inter-test state
# leaks cannot hide behind a fixed execution order (the seed is printed on
# failure for reproduction).
go test -race -shuffle=on "$@" ./...

# The per-cell allocation budget (internal/batch TestCellAllocBudget) and the
# TE re-simulation's (internal/te TestMaxTotalFlowAllocBudget) skip
# themselves under the race detector, whose instrumentation allocates on its
# own account, so they run here without it.
go test ./internal/batch -run '^TestCellAllocBudget$' -count=1
go test ./internal/te -run '^TestMaxTotalFlowAllocBudget$' -count=1

# Ten seconds of native fuzzing on the Topology Zoo GML parser, seeded from
# the committed fixture corpus: a crash or invariant violation found here
# fails the build before it can land (the full campaigns run on demand with
# a longer -fuzztime).
go test ./internal/topology -run '^$' -fuzz '^FuzzParseGML$' -fuzztime 10s

# And ten seconds on the restored warm start (internal/lp): chains of bound
# tightenings and loosenings on the random-LP corpus, each re-solved from a
# basis exported earlier in the chain, must agree with a fresh Problem's
# rebuilt start on status, objective and feasibility.
go test ./internal/lp -run '^$' -fuzz '^FuzzWarmRestore$' -fuzztime 10s

# The random-MILP corpus once more with presolve and domain propagation
# switched off: the pre-reduction solver must stay correct on its own, so a
# presolve bug can never hide behind the reductions (and vice versa).
go test ./internal/milp -run 'TestRandomMILPsAgainstBruteForce' -short -presolve=off

# And once with every cold LP started from the dual simplex on the slack
# basis. internal/lp starts only LPs of coldDualRows rows or more that way,
# and no corpus LP comes near, so without the switch the dual start would be
# checked on a handful of large instances only (DESIGN.md §2.13).
go test ./internal/milp -run 'TestRandomMILPsAgainstBruteForce' -short -colddual=all

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
# pre-merge failure instead. All three b4_budget instances end `optimal`
# inside the 1 s budget, and a LIFO dive at width 1 (the deque discipline)
# reaches the same pinned degradations, so this smoke does not guard the
# width-1 search order; TestSerialSearchCountsPinned's node counts do.
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
# variable-demand B4 analysis runs to proven optimality (about 0.15 s of its
# 60 s budget), and its main solve — the trace's last solve_end — must have
# discarded children on the lost-capacity bound of their boxes. It must also
# carry pruned_bound, a key only the Stats field tags put on solve_end, and
# have restarted once: its tree outgrows the model's integer count, so the
# search drops its open nodes there and begins again from the root.
budget_tmp=$tmp/budget.jsonl
go run ./cmd/raha analyze -topology b4 -workers 1 -budget 60s -trace "$budget_tmp" -q -progress=false >/dev/null
last_end=$(grep '"ev":"solve_end"' "$budget_tmp" | tail -n 1)
if ! printf %s "$last_end" | grep -q '"budget_prunes":[1-9]' ||
	! printf %s "$last_end" | grep -q '"pruned_bound":' ||
	! printf %s "$last_end" | grep -q '"restarts":1' ||
	! printf %s "$last_end" | grep -q '"status":"optimal"'; then
	echo "ci: b4 did not end optimal with budget_prunes > 0, a pruned_bound count and one restart: $last_end" >&2
	exit 1
fi

# The paper-scale cold root, pinned by count and clock-free: the serial
# AfricaWAN alert (150 pairs, seed 2; m ≈ 2,600 after presolve) through the
# binary. It exits 1 because it raises the alert, which is expected; its main
# solve — the trace's last solve_end — must have taken exactly the nodes, LP
# solves and simplex iterations pinned here, and its root LP, above
# internal/lp's coldDualRows, must have started from the dual simplex
# (dual_cold_starts ≥ 1). Its node LPs must restore the end state their
# parent's basis carries (restored_starts ≥ 1), and its dives continue on
# the factors of the LP before (hot_starts ≥ 1, DESIGN.md §2.13). The B4 gate above
# checks qualitative keys only, so this is the one that sees a pivot move in
# a big cold root LP end to end. A change that means to alter the search
# re-pins it together with TestSerialSearchCountsPinned (internal/metaopt).
africa_tmp=$tmp/africa.jsonl
if "$tmp/raha" alert -topology africawan -pairs 150 -seed 2 -workers 1 -q -progress=false \
	-trace "$africa_tmp" >/dev/null; then
	echo "ci: the AfricaWAN alert did not raise (exit 0)" >&2
	exit 1
fi
last_end=$(grep '"ev":"solve_end"' "$africa_tmp" | tail -n 1)
if ! printf %s "$last_end" | grep -q '"nodes":134[,}]' ||
	! printf %s "$last_end" | grep -q '"lp_solves":136[,}]' ||
	! printf %s "$last_end" | grep -q '"lp_iters":2338[,}]' ||
	! printf %s "$last_end" | grep -q '"dual_cold_starts":[1-9]' ||
	! printf %s "$last_end" | grep -q '"restored_starts":[1-9]' ||
	! printf %s "$last_end" | grep -q '"hot_starts":[1-9]'; then
	echo "ci: the AfricaWAN alert's main solve moved (want nodes 134, lp_solves 136, lp_iters 2338, dual_cold_starts ≥ 1, restored_starts ≥ 1, hot_starts ≥ 1): $last_end" >&2
	exit 1
fi

# The warm node re-solve, pinned the same way: the serial B4 analysis of the
# b4_budget shape (12 pairs, generator seed 5, 4 primary paths) runs to
# proven optimality in well under a second, almost all of it warm dual
# re-solves, and its main solve must take exactly these nodes, LP solves
# and simplex iterations. A warm start that reuses its basis's factors
# pivots bit for bit as one that rebuilds them, so that does not move these
# counts; a restored start, which carries the exporting LP's primal values
# and reduced costs with their rounding (DESIGN.md §2.13), does, and the hot
# ones among them, which also keep that LP's factors, must fire
# (hot_starts ≥ 1). Its cold LPs are below internal/lp's coldDualRows,
# so none may start from the dual simplex: this is the other side of the
# AfricaWAN gate's selection.
b4_tmp=$tmp/b4.jsonl
"$tmp/raha" analyze -topology b4 -pairs 12 -seed 5 -primary 4 -workers 1 -q -progress=false \
	-trace "$b4_tmp" >/dev/null
last_end=$(grep '"ev":"solve_end"' "$b4_tmp" | tail -n 1)
if ! printf %s "$last_end" | grep -q '"nodes":3637[,}]' ||
	! printf %s "$last_end" | grep -q '"lp_solves":3670[,}]' ||
	! printf %s "$last_end" | grep -q '"lp_iters":16370[,}]' ||
	! printf %s "$last_end" | grep -q '"dual_cold_starts":0[,}]' ||
	! printf %s "$last_end" | grep -q '"hot_starts":[1-9]'; then
	echo "ci: the B4 analysis's main solve moved (want nodes 3637, lp_solves 3670, lp_iters 16370, dual_cold_starts 0, hot_starts ≥ 1): $last_end" >&2
	exit 1
fi

# The new-LAG augment (Appendix C) on the CLI's own defaults, SmallWAN and
# B4, serial: it must exit 0 and converge. A step whose edge-form MILP is
# infeasible or places nothing takes the existing-LAG step (§7) instead of
# ending the run (DESIGN.md §2.5).
for topo in smallwan b4; do
	if ! out=$("$tmp/raha" augment -new-lags -topology "$topo" -workers 1 -q -progress=false) ||
		! printf %s "$out" | grep -q '^converged: true'; then
		echo "ci: raha augment -new-lags did not converge on $topo: $out" >&2
		exit 1
	fi
done

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

# The examples: `go build ./...` compiles them, and this runs each one (all
# five take about a second), so an API change that leaves an example
# compiling but failing at run time fails CI too.
for d in examples/*/; do
	name=$(basename "$d")
	go build -o "$tmp/example-$name" "./$d"
	if ! "$tmp/example-$name" >/dev/null; then
		echo "ci: examples/$name exited non-zero" >&2
		exit 1
	fi
done

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
# The one-cell grid above never lets a cell reuse another's proof. A traced
# pass of the default grid over the same corpus must: the peak and elastic
# cells ask one phase-1 question, so some cell answers its phase 1 from an
# earlier cell's (a phase_reused event), and some tighter (k, p) cell is
# closed by what its looser neighbours proved.
fleet_tmp=$tmp/fleet.jsonl
go run ./cmd/raha alert -all -builtins=false -zoo-dir internal/topology/testdata \
	-budget-per-topo 10s -workers 2 -q -progress=false -trace "$fleet_tmp" >/dev/null
if ! grep '"ev":"phase_reused"' "$fleet_tmp" | grep -q '"phase":1' ||
	! grep '"ev":"sweep_topo_end"' "$fleet_tmp" | grep -q '"cells_closed_by_neighbour":[1-9]'; then
	echo "ci: the default-grid fixture sweep reused no phase 1 or closed no cell by a looser neighbour" >&2
	exit 1
fi
# The sessions answer a question whose model presolves to the same reduction
# as a proved question's without a search (the identity rule, DESIGN.md
# §2.10). A clock-free gate on the built-ins plus 40 synthetic WANs at one
# worker: the cell outcomes must be the ones every cell's own search gave
# before the rule (352 OK, 208 optimal, 144 infeasible), and the rule must
# answer exactly 3 phases.
sessions_tmp=$tmp/sessions.json
go run ./cmd/raha alert -all -synthetic 40 -workers 1 -q -progress=false -report "$sessions_tmp" >/dev/null
ok=$(grep -m1 '"CellsOK":' "$sessions_tmp" | grep -o '[0-9]*')
optimal=$(grep -c '"Status": "optimal"' "$sessions_tmp")
infeasible=$(grep -c '"Status": "infeasible"' "$sessions_tmp")
identical=$(grep -m1 '"PhasesIdentical":' "$sessions_tmp" | grep -o '[0-9]*')
if [ "$ok/$optimal/$infeasible/$identical" != "352/208/144/3" ]; then
	echo "ci: the session sweep read $ok OK / $optimal optimal / $infeasible infeasible cells and $identical identical phases, want 352/208/144/3" >&2
	exit 1
fi
undefined_flag() {
	if out=$(go run "$@" 2>&1) || ! printf %s "$out" | grep -q 'flag provided but not defined'; then
		echo "ci: $* was not rejected as an undefined flag: $out" >&2
		exit 1
	fi
}
undefined_flag ./cmd/raha alert -all -builtins=false -zoo-dir internal/topology/testdata -parallelism auto
undefined_flag ./cmd/raha analyze -presolve off
undefined_flag ./cmd/raha-experiments -presolve off
# The pre-solve model check is gone from both CLIs too. What its smoke
# guarded — no error diagnostic on a real §5 model — is internal/metaopt's
# TestBuiltModelsCheckClean, over every objective and topology shape.
undefined_flag ./cmd/raha analyze -check
undefined_flag ./cmd/raha-experiments -check

# Trace-analysis smoke: a real traced solve must round-trip through
# raha-trace. summarize exits non-zero on a malformed trace or one with
# zero attributed time, workers on missing per-worker data — so a schema
# drift between the solver's emit sites and the analyzer fails CI here.
# The workers pass doubles as the width > 1 scheduler health gate: a B4
# analysis at -workers 4 must record successful steals (work actually moved
# between workers) and keep the summed idle share under 50% (workers spent
# their time searching, not spinning in steal backoff). Its root LP has
# enough fractional integers to keep the width, and the solve caps the
# width at GOMAXPROCS, so GOMAXPROCS=4 keeps the pool 4 wide on any host.
trace_tmp=$tmp/trace.jsonl
GOMAXPROCS=4 go run ./cmd/raha analyze -topology b4 -budget 5s -workers 4 \
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
