#!/usr/bin/env bash
# Builds gicnetd and the benchmark from the checkout's sources, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload mc-sweep --seed 7 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout: binaries, the Go build cache, and traced runs' span files.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/gicnetd" ]]; then
	echo "run.sh: no gicnet sources (go.mod, cmd/gicnetd) in $root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config/go/telemetry"
# The go command otherwise forks a detached telemetry process that can
# outlive this script; turning telemetry off keeps it from starting.
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly
export GOTOOLCHAIN=local
export GOPROXY=off

go build -C "$root" -o "$out/bin/gicnetd" ./cmd/gicnetd
go build -C "$root/perfbench" -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -root "$root" -gicnetd "$out/bin/gicnetd" -out "$out" "$@"
