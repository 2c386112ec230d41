#!/usr/bin/env bash
# Builds the served-stack benchmark from the checkout it sits in and runs
# it. Run from the repository root:
#
#   bash servebench/run.sh --workload dpram-mem --seed 1 --seconds 10 --trace 0
#   bash servebench/run.sh compare <results-dir-A> <results-dir-B>
#
# Everything the build and the runs leave behind goes under .bench_build/
# in the current directory: the Go build cache, the binary, result files,
# spans, and the durable stacks' data while they run.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

# Keep the toolchain's caches and settings inside the checkout, and never
# reach for the network: the benchmark has no dependency outside it.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

commit=unknown
if top=$(git -C "$root" rev-parse --show-toplevel 2>/dev/null) && [ "$top" = "$root" ]; then
	commit=$(git -C "$root" rev-parse HEAD)
fi

(cd "$root/servebench" && go build -ldflags "-X main.commit=$commit" -o "$out/servebench" .) >&2
exec "$out/servebench" "$@"
