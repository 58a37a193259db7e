#!/usr/bin/env bash
# Builds the performance ledger from source and runs one workload:
#
#   bash perfledger/run.sh --workload paper-n16 --seed 1000 --seconds 20 --trace 0
#
# Run it from the repository root. Build output goes to stderr, so the
# ledger's JSON result stays the last line of stdout. The shared dune
# cache is off so that the build reads and writes only this checkout.
set -euo pipefail
command -v dune > /dev/null 2>&1 || eval "$(opam env 2> /dev/null)" || true
export DUNE_CACHE=disabled
dune build --root . perfledger/ledger.exe 1>&2
exec ./_build/default/perfledger/ledger.exe "$@"
