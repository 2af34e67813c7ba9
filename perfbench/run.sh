#!/usr/bin/env bash
# Builds the benchmark and the appfitd daemon from the source tree it is run
# in, then runs one measurement. Run from the repository root:
#
#   bash perfbench/run.sh --workload runtime --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the go command's own files stay under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod
go build -o "$out/appfitd" ./cmd/appfitd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -daemon "$out/appfitd" -trace-dir "$out" "$@"
