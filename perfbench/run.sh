#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it. From the
# checkout root:
#
#   bash perfbench/run.sh --workload seh --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and the compiler's temporary files go to
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout. Without
# the repository's go.mod next to perfbench/ the build fails and nothing
# is printed on standard output.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOENV=off GOWORK=off GOFLAGS=-buildvcs=false

go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" -root "$root" "$@"
