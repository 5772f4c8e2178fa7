#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the given
# arguments, from the repository root:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 20 --trace 0
#
# Every build product and cache stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
# The go command's own config (and its local telemetry counters) live under
# XDG_CONFIG_HOME; point that into the build directory as well. Telemetry is
# switched off there: in its default local mode the go command spawns a
# detached child that outlives the build.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build" XDG_CONFIG_HOME="$build/config"
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
export GOWORK="$root/perfbench/go.work" GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
