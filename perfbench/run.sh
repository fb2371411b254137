#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it
# from the checkout root; every build and run artifact stays under
# .bench_build/ (Go's caches included), and the arguments pass through
# unchanged, e.g.
#
#	bash perfbench/run.sh --workload paper-full --seed 1 --seconds 10 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=
export GOTELEMETRY=off GOPROXY=off GOSUMDB=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
