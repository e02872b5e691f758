#!/bin/sh
# Build the ppdm CLI and the end-to-end benchmark from source, then run the
# benchmark with the given arguments (see bench/e2e/README.md).  Run it
# from the root of a ppdm source tree:
#
#   sh bench/e2e/run.sh --workload private-dense --seed 1 --seconds 20 --trace 0
set -eu
if [ ! -f dune-project ] || [ ! -f bin/ppdm_cli.ml ]; then
  echo "bench/e2e/run.sh: run from the root of a ppdm source tree" >&2
  exit 2
fi
# Build products stay in _build/ (no shared dune cache outside the tree).
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bin/ppdm_cli.exe ./bench/e2e/main.exe >&2
exec ./_build/default/bench/e2e/main.exe --ppdm ./_build/default/bin/ppdm_cli.exe "$@"
