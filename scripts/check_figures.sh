#!/bin/sh
# Checks that every figure replays from a warm artifact store. For each
# figure `mcd_cli list --json` reports, runs `mcd_cli figure NAME` cold
# and then warm against one fresh store, at a tiny methodology, and
# requires byte-identical stdout and zero simulations on the warm run.
# Figures share artifacts, so a later figure's first run may already be
# warm; at least one first run must simulate, or the check proves
# nothing.
#
#   scripts/check_figures.sh path/to/mcd_cli
set -eu

cli=${1:?usage: check_figures.sh MCD_CLI}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
export MCD_STORE="$work/store" MCD_INSNS=2000 MCD_WARMUP=500 \
    MCD_INTERVAL=250 MCD_BENCHMARKS=gsm,em3d

names=$("$cli" list --json | python3 -c 'import json, sys
print(" ".join(f["name"] for f in json.load(sys.stdin)["figures"]))')
test -n "$names" || { echo "no figures listed"; exit 1; }

status=0
simulated=0
for name in $names; do
    for run in cold warm; do
        "$cli" figure "$name" > "$work/$run.out" 2> "$work/$run.err" || {
            echo "FAIL $name: $run run exited nonzero"
            cat "$work/$run.err"
            exit 1
        }
    done
    grep -q '^store: .* simulations=[1-9]' "$work/cold.err" && simulated=1
    if ! diff "$work/cold.out" "$work/warm.out"; then
        echo "FAIL $name: warm stdout differs from cold"
        status=1
    elif ! grep -q '^store: .* simulations=0 ' "$work/warm.err"; then
        echo "FAIL $name: warm run simulated"
        status=1
    else
        echo "ok   $name"
    fi
done
test $simulated = 1 || { echo "FAIL: no first run simulated"; exit 1; }
exit $status
