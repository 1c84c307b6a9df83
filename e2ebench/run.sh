#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run it from the
# root of a psbox checkout, with the benchmark's own flags:
#
#   bash e2ebench/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory,
# $CARGO_TARGET_DIR when set and .bench_build otherwise: the Go build and
# module caches, the Go tool's config, the binary, and the traced run's
# spans. Outside a psbox checkout the build fails and nothing is printed
# on standard output.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/home"

export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$root/e2ebench" && go build -buildvcs=false -o "$out/e2ebench" .) >&2
commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/e2ebench" --out-dir "$out" --commit "$commit" "$@"
