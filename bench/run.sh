#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark program from
# source into .bench_build/ at the checkout root (Go build cache and the go
# command's own config/telemetry directory included, so nothing outside the
# checkout is written) and runs it from the root with the arguments given.
# Examples:
#
#   bash bench/run.sh --workload uninett_optimal --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh --sets 10          # noise protocol, see bench/README.md
#   bash bench/run.sh --compare a.json b.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && XDG_CONFIG_HOME="$build/config" go build -o "$build/rahabench" .)
cd "$root"
exec "$build/rahabench" "$@"
