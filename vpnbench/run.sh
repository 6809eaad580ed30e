#!/usr/bin/env bash
# Builds the vpnbench benchmark and the vpnscoped daemon from the checkout
# this is run in, then hands every argument to vpnbench:
#
#   bash vpnbench/run.sh --workload study-seq --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a vpnscope checkout. Build caches, binaries,
# shard logs, daemon state and the go command's own files (its
# telemetry counters live under the user config directory) all stay
# under .bench_build/ there.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	PPROF_TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C vpnbench build -o "$out/vpnbench" .
go build -o "$out/vpnscoped" ./cmd/vpnscoped

exec "$out/vpnbench" -work "$out" -daemon-bin "$out/vpnscoped" "$@"
