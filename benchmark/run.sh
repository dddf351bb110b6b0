#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark binary from the
# checkout it lives in, keeping every build artefact (Go build cache, work
# dirs, binaries, tmand data dirs) under <checkout>/.bench_build so nothing
# is read or written outside the checkout, then execs it with the caller's
# flags. The benchmark binary builds cmd/tmand itself.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gocache" "$build/home"
# The module has no dependencies, so nothing is fetched; HOME and GOPATH move
# the toolchain's own files (telemetry counters, module cache) into the
# checkout as well.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOPATH="$build/home/go" \
	GOWORK=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/bin/tmanbench" .) >&2
exec "$build/bin/tmanbench" -root "$root" "$@"
