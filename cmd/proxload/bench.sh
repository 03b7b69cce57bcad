#!/usr/bin/env bash
# Builds proxload from the repository checkout and runs it with the given
# arguments. Run it from the repository root:
#
#   bash cmd/proxload/bench.sh --workload knn-inproc --seed 1 --seconds 12 --trace 0
#
# Every build and run artifact (Go build cache, temporary files, the
# binary, the sessions' cache files, trace output) stays under
# .bench_build/ in the working directory. The build is offline: the
# module needs nothing but the standard library and the repository.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
export GOPROXY=off GOSUMDB=off
go -C cmd/proxload build -o "$out/proxload" .
exec "$out/proxload" "$@"
