#!/usr/bin/env bash
# Builds the vulnstack benchmark from source and runs it:
#
#   bash vsbench/run.sh --workload table3-cold --seed 2021 --seconds 60 --trace 0
#
# Everything it writes (Go build cache, binary, temporary stores, trace
# files) goes under .bench_build/ at the root of the checkout. Build
# failures exit non-zero without printing a result.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOFLAGS= GOWORK=off GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local
commit=unknown
if [ -d "$root/.git" ] && command -v git >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
	git -C "$root" diff --quiet HEAD 2>/dev/null || commit="$commit-dirty"
fi
(cd "$here" && go build -buildvcs=false -o "$out/vsbench" .) >&2
exec "$out/vsbench" -workdir "$out/vsbench-run" -commit "$commit" "$@"
