#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs one
# workload. Every build artifact (binary, Go build cache, temp files, trace
# dumps) stays under .bench_build/ at the checkout root.
#
#   bash perfbench/run.sh --workload gateway-png128 --seed 1 --seconds 10 --trace 0
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTELEMETRY=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
