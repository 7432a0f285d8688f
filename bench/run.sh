#!/usr/bin/env bash
# Builds the benchmark into .bench_build at the root of the checkout and runs
# it with the given arguments. The Go build cache and temporary files stay in
# .bench_build too, so nothing is written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false
(cd bench && go build -o "$build/uindex-bench" .) >&2
exec "$build/uindex-bench" "$@"
