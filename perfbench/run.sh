#!/usr/bin/env bash
# Builds the repository benchmark from the sources in this checkout and
# runs one workload. Run it from the repository root, for example:
#
#   bash perfbench/run.sh --workload read-mix --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, disk stores and span
# files. Build output goes to standard error, so the last line of
# standard output is the result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS="" GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0 TMPDIR="$out/tmp"
# The go command keeps telemetry counters under the user configuration
# directory; point it into the checkout too.
export XDG_CONFIG_HOME="$out/config"

if [ -e "$root/.git" ] && commit=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	if ! git -C "$root" diff --quiet HEAD -- 2>/dev/null; then
		commit="$commit-dirty"
	fi
	export PERFBENCH_COMMIT="$commit"
fi

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -workdir "$out/work" "$@"
