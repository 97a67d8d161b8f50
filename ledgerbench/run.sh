#!/usr/bin/env bash
# Builds the ledger benchmark from source and runs it. Every argument is
# passed through (see ledgerbench/README.md); run from the repository root:
#
#   bash ledgerbench/run.sh --workload refine-sessions --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the runs' scratch files all stay
# under $CARGO_TARGET_DIR (default .bench_build) in the working directory.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local
go build -buildvcs=false -o "$out/ledgerbench" ./ledgerbench
exec "$out/ledgerbench" --workdir "$out/ledgerbench-work" "$@"
