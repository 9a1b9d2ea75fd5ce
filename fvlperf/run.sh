#!/usr/bin/env bash
# Builds fvld from the tree under test and the benchmark, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash fvlperf/run.sh --workload query --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory, the Go build cache included.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/fvld || ! -f fvlperf/go.mod ]]; then
	echo "fvlperf: run from the root of a repository checkout (go.mod, cmd/fvld, fvlperf/)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build/fvlperf"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" # the go command's telemetry and env file
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off
export CGO_ENABLED=0

go build -o "$out/bin/fvld" ./cmd/fvld
(cd fvlperf && go build -o "$out/bin/fvlperf" .)
exec "$out/bin/fvlperf" --fvld "$out/bin/fvld" "$@"
