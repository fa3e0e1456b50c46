#!/bin/sh
# The command BENCHMARK.json names: builds ./bench from the checkout it is
# started in and runs it, keeping the Go build cache, the linker's temporary
# files and the binary under .bench_build/ so that nothing is written
# outside the checkout. People can use `go run ./bench` directly.
set -eu
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: run from the root of a checkout of the repository" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
# No VCS stamp: a checkout need not be a git repository, or one git trusts.
go build -buildvcs=false -o "$build/bench" ./bench
exec "$build/bench" "$@"
