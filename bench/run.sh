#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout: bash bench/run.sh [flags] | bash bench/run.sh compare a.json b.json
#
# Everything the build writes stays inside the checkout: the binary and
# the Go build cache live under .bench_build/ (ignored by git).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/ecbench" .) >&2
exec "$build/ecbench" "$@"
