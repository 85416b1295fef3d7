#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload <library|serve> --seed <n> --seconds <s> --trace <0|1>
# Run from the root of a checkout. Build outputs and the Go build cache
# stay under .bench_build/ in the checkout; nothing is fetched.
set -euo pipefail

root="$(pwd)"
if [ ! -f "${root}/go.mod" ] || [ ! -d "${root}/internal" ]; then
	echo "perfbench: run from the root of a repository checkout (go.mod and internal/ not found)" >&2
	exit 2
fi

out="${root}/.bench_build"
mkdir -p "${out}/tmp"
export GOCACHE="${out}/gocache"
export GOMODCACHE="${out}/gomodcache"
export GOPATH="${out}/gopath"
export GOTMPDIR="${out}/tmp"
export TMPDIR="${out}/tmp"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export CGO_ENABLED=0

(cd "${root}/perfbench" && go build -o "${out}/perfbench" .) >&2
exec "${out}/perfbench" "$@"
