#!/usr/bin/env bash
# Builds the ftbench2 harness from source and runs one workload.
# Run from the repository root; arguments go to the harness, e.g.
#   bash ftbench2/run.sh --workload solve-tabu --seed 1 --seconds 20 --trace 0
# The build cache, the binary and the run's scratch files stay under
# .bench_build/ in the current directory; so does the go command's own
# config and telemetry directory (XDG_CONFIG_HOME).
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$(dirname "$0")" && go build -o "$build/bin/ftbench2" .)
exec "$build/bin/ftbench2" "$@"
