#!/usr/bin/env bash
# Builds cmd/rankbench from source and runs it with the given arguments.
# Run it from the root of the repository:
#
#	bash cmd/rankbench/run.sh --workload search --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and everything a run writes stay under
# .bench_build at the root; the first build fills the cache.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off

go -C cmd/rankbench build -o "$out/rankbench" .
exec "$out/rankbench" "$@"
