#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark and the daemon
# from source into .bench_build/ (the Go build cache lives there too, so
# nothing is written outside the checkout) and runs the benchmark with the
# arguments given. Builds are incremental; neither is inside any metric.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out=$root/.bench_build
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local

# The benchmark is a module of its own, so the repo's `go test ./...` does
# not reach its tests. The two rules those tests guard are checked on every
# run instead: the benchmark sees the program through its public package
# only (later changes rewrite the internal ones and may not edit this
# directory), and BENCHMARK.json is the program's own tables.
if grep -l '"kaleido/internal' "$here"/*.go >&2; then
	echo "benchmark: the files above import an internal package of kaleido" >&2
	exit 1
fi
(
	cd "$here"
	go build -o "$out/benchmark" .
	go build -o "$out/kaleidod" kaleido/cmd/kaleidod
)
if [[ " $* " != *" --manifest "* ]] && ! "$out/benchmark" --manifest | cmp -s - "$root/BENCHMARK.json"; then
	echo "benchmark: BENCHMARK.json differs from the program's tables (bash benchmark/run.sh --manifest prints them)" >&2
	exit 1
fi
exec "$out/benchmark" --out "$out" --kaleidod "$out/kaleidod" "$@"
