#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root. Everything the build and the run write (Go build cache,
# binary, temp data, span files) stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
(
	cd "$here"
	GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOFLAGS=-buildvcs=false go build -o "$out/bench" .
) >&2
cd "$root"
# The run records the revision it measured; a checkout that is not a git
# repository has none.
export GIT_SHA="${GIT_SHA:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}"
exec "$out/bench" "$@"
