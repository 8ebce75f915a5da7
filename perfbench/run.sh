#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload dhfr-64 --seed 1 --seconds 40 --trace 0
#
# Build output, the Go build cache, spans and CPU profiles all go under
# .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ not found)" >&2
	exit 2
fi

root=$PWD
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
mkdir -p .bench_build/perfbench
(cd perfbench && go build -buildvcs=false -o "$root/.bench_build/perfbench/perfbench" .)

# The commit, when the checkout is a git work tree of its own.
commit=unknown
if top=$(git rev-parse --show-toplevel 2>/dev/null) && [[ $top == "$root" ]]; then
	if commit=$(git rev-parse HEAD 2>/dev/null); then
		[[ -z $(git status --porcelain 2>/dev/null) ]] || commit+=+modified
	else
		commit=unknown
	fi
fi

# The workloads run under the Go runtime defaults users get.
unset GOGC GOMAXPROCS GOMEMLIMIT GODEBUG
exec "$root/.bench_build/perfbench/perfbench" --commit "$commit" "$@"
