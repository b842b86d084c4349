#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash fldperf/run.sh --workload kv100k --seed 1 --seconds 36 --trace 0
#
# Everything the build writes (Go build cache, the go command's local
# telemetry, the binary) stays under .bench_build at the repository
# root, and no module is downloaded: the benchmark module depends only
# on the repository module, by path.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out=$(dirname "$here")/.bench_build
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$here" build -o "$out/fldperf" .
exec "$out/fldperf" "$@"
