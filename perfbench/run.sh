#!/usr/bin/env bash
# Builds the benchmark harness from the checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload dense-128x4k --seed 1 --seconds 10 --trace 0
#
# Every build artifact and Go cache lives under .bench_build/ at the root of
# the checkout, so nothing is read or written outside it.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
