#!/usr/bin/env bash
# Builds the benchmark and the celestial CLI from this checkout's sources
# into .bench_build/ and runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload gen2-sparse --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --smoke
#
# Every file the build and the run write stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
(cd "$root" && go build -o "$out/bin/celestial" ./cmd/celestial)
cd "$root"
exec "$out/bin/perfbench" -celestial "$out/bin/celestial" -digests "$root/perfbench/digests.json" \
	-out "$out/out" "$@"
