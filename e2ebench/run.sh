#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it is run in, then
# runs it with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload sweep-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binary, and the
# benchmark's outputs (span files, CPU profiles, the exact-count ledger).
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "$0")" && pwd)"
out="${root}/.bench_build"
mkdir -p "${out}"

export GOCACHE="${out}/gocache"
export GOMODCACHE="${out}/gomodcache"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOENV=off

(cd "${here}" && go build -trimpath -buildvcs=false -o "${out}/e2ebench.bin" .) >&2
exec "${out}/e2ebench.bin" -out "${out}/e2ebench" "$@"
