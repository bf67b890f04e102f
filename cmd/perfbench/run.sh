#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs one
# workload. Run it from the repository root:
#
#   bash cmd/perfbench/run.sh --workload table-small --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and every file a run writes stay under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's environment file and telemetry
# counters in the checkout as well.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/cmd/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/work" "$@"
