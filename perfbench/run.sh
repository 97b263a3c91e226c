#!/usr/bin/env bash
# Builds btrace-serve and the benchmark from this checkout, then runs
# one benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload ingest-single --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh steady [flags]
#
# Everything the build and the runs write stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/btrace-serve ]; then
	echo "run.sh: no btrace checkout here (go.mod, cmd/btrace-serve); run it from the repository root" >&2
	exit 1
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/bin" "$out/config/go/telemetry"
out="$(cd "$out" && pwd)"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files in
# the build directory too. Telemetry is switched off there: in any other
# mode the go command starts a detached upload process that outlives
# the run.
printf off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$out/bin/btrace-serve" ./cmd/btrace-serve
(cd perfbench && go build -o "$out/bin/perfbench" .)
if [ "${1:-}" = steady ]; then
	shift
	exec "$out/bin/perfbench" steady -serve "$out/bin/btrace-serve" "$@"
fi
exec "$out/bin/perfbench" -serve "$out/bin/btrace-serve" "$@"
