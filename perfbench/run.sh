#!/usr/bin/env bash
# Builds vn2 and the benchmark from this checkout into .bench_build, then
# runs one benchmark workload:
#
#   bash perfbench/run.sh --workload steady --seed 1 --seconds 8 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binaries, fixtures, WALs, traces) stays under
# .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
command -v go >/dev/null || export PATH="$PATH:/usr/local/go/bin"

go build -o "$out/vn2" ./cmd/vn2
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -vn2 "$out/vn2" -workdir "$out" "$@"
