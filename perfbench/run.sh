#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload dashboard --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build writes (binary, Go
# build cache, telemetry) stays under .bench_build/ in the checkout, or
# under $CARGO_TARGET_DIR when that is set. The last line of standard
# output is the JSON result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/go-cache GOMODCACHE=$out/go-mod GOPATH=$out/go-path \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
