#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload deep-resident --seed 1 --seconds 20 --trace 0
#
# The build cache, temporary files and the binary stay under .bench_build
# in the current directory.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
