#!/usr/bin/env bash
# Builds the calibration benchmark from the checkout's sources and runs it.
# Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload wf-bogp-local --seed 1 --seconds 30 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# checkout (Go build cache, temp files, binary, calibration state).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
