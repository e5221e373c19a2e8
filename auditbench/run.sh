#!/usr/bin/env bash
# Builds auditd and the benchmark program from this checkout, then runs one
# workload. Usage (from the repository root):
#
#   bash auditbench/run.sh --workload backfill --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays inside the checkout: the
# binaries, the Go build cache and temporary files under .bench_build,
# each run's logs and records under .bench_runs.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOCACHE="$out/gocache" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	TMPDIR="$out/tmp"
# With telemetry on (the default "local" mode), every go command may fork a
# detached sidecar process that outlives it; switch it off first.
go telemetry off >&2
go build -o "$out/auditd" ./cmd/auditd >&2
(cd auditbench && go build -o "$out/auditbench" .) >&2
exec "$out/auditbench" -root "$root" -auditd "$out/auditd" "$@"
