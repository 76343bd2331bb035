#!/usr/bin/env bash
# Builds flayd and the benchmark harness from this checkout, then runs
# one benchmark invocation with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload ctl-single-nat44 --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Everything it builds or writes
# lands in .bench_build/ there; the Go build cache is kept there too, so
# only the first invocation in a checkout compiles from scratch.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/bin/flayd" ./cmd/flayd
(cd e2ebench && go build -o "$out/bin/e2ebench" .)
exec "$out/bin/e2ebench" -flayd "$out/bin/flayd" -ledger-dir "$out/ledger" "$@"
