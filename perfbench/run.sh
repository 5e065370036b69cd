#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the repository root) and runs it with the given arguments.
# The Go build cache, temporary files and the go command's config and
# telemetry directory stay inside .bench_build/ too.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -workdir "$build" "$@"
