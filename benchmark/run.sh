#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags. Run it
# from the repository root. The build cache, the Go environment files and
# the binary all stay under .bench_build/ in the current directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
go -C benchmark build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
