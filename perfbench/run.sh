#!/usr/bin/env bash
# Builds the perfbench binary from the checkout it is run in and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload analyst_read --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build output, the Go build cache,
# temporary files, data directories and trace files all stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

# The build's and the benchmark's temporary files stay in the checkout too.
export GOTMPDIR=$out/tmp
export TMPDIR=$out/tmp
export GOCACHE=$out/gocache
export GOPATH=$out/gopath
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=
export XDG_CONFIG_HOME=$out/config

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
