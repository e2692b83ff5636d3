#!/usr/bin/env bash
# Builds goblaz and the benchmark program from the checkout this script
# sits in, then runs one benchmark workload. Every build product, cache
# and scratch file stays under ${CARGO_TARGET_DIR:-.bench_build} at the
# checkout root; CARGO_TARGET_DIR, when set, names another build
# directory.
#
#   bash perfbench/run.sh --workload scan --seed 1 --seconds 25 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d cmd/goblaz ] || [ ! -d internal ]; then
	echo "perfbench: $root holds no goblaz source tree (go.mod, cmd/goblaz, internal)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/goblaz" ./cmd/goblaz
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -goblaz "$out/goblaz" -workdir "$out" "$@"
