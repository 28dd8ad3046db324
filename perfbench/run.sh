#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload <churn|hybrid|central3-attack|fuzz|all> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the runs write stays under .bench_build/,
# including the go command's telemetry counters (kept in the user config
# directory, which XDG_CONFIG_HOME moves).
set -euo pipefail

out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false \
	PPROF_TMPDIR="$out/pprof"
mkdir -p "$out"
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
