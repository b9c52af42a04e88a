#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload paper-fig8 --seed 1 --seconds 25 --trace 0
#
# Build output, the Go build cache, traces and campaign data all stay
# under .bench_build/ in the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
# The go command keeps its telemetry counters under the user config
# directory; point that inside the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
PERFBENCH_COMMIT=$commit exec "$out/perfbench" --out "$out" "$@"
