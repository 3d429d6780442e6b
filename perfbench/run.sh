#!/usr/bin/env bash
# Builds the resoptd benchmark from the source tree it sits in and runs
# it with the given arguments (see README.md). Everything the build and
# the run write stays under .bench_build/ at the root of the tree.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
if [[ ! -f $root/go.mod || ! -d $root/internal/server ]]; then
	echo "perfbench: $root does not hold the resopt sources" >&2
	exit 2
fi

build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/go-cache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
# The go command's telemetry counters and module cache live under the
# user's home by default; keep them in the tree too.
export XDG_CONFIG_HOME=$build/config GOMODCACHE=$build/mod
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -root "$root" "$@"
