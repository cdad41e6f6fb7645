#!/usr/bin/env bash
# Builds the spbench binary from source into .bench_build/ (with a
# build cache of its own there, so nothing is written outside the
# checkout) and runs it with the given arguments. Run it from the root
# of the repository:
#
#	bash spbench/run.sh --workload campaign-cold --seed 0 --seconds 30 --trace 0
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOWORK=off GOTOOLCHAIN=local
(cd "$root/spbench" && go build -buildvcs=false -o "$out/spbench" .)
exec "$out/spbench" "$@"
