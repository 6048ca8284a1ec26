#!/usr/bin/env bash
# Builds perfbench from this checkout and runs one workload with the
# given flags, e.g.
#
#   bash perfbench/run.sh --workload census --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build, relative to the
# checkout root): the Go build cache, the binary, per-run scratch stores
# (removed when the run ends) and the traced runs' span files.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOPROXY=off GOSUMDB=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" --dir "$build/perfbench-runs" "$@"
