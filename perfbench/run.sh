#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs one
# workload. Usage, from the repository root:
#   bash perfbench/run.sh --workload build|exec|serve --seed N --seconds S --trace 0|1
# Build outputs, span dumps and all of Go's own state (build cache,
# module cache, temporary files, user config and telemetry) stay under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/perfbench" .)
# Flush the build's writes now rather than in the background while
# the run is timed.
sync
cd "$root"
exec "$out/perfbench" -out "$out" "$@"
