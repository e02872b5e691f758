#!/bin/sh
# Every command that reads a data file must reject a malformed file, a
# missing file and a header with a huge transaction count with exit 1
# and a "<cmd>: " message on stderr, never an uncaught exception.
# Usage: bad_input.sh PPDM_CLI
set -eu
# Bare names (no slash) are files in the current directory.
path() { case $1 in */*) echo "$1" ;; *) echo "./$1" ;; esac; }
cli=$(path "$1")
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
printf 'universe 2 transactions 1\nfoo\n' >"$dir/malformed.txt"
printf 'universe 2 transactions 99999999999\n0 1\n' >"$dir/huge.txt"
printf 'tagged 10 transactions 2\n2|1 x 3\n' >"$dir/malformed.tagged"
printf 'tagged 2 transactions 99999999999\n2|0 1\n' >"$dir/huge.tagged"

# One invocation per reading command, on the input file $1.
mine() { "$cli" mine --in "$1" --min-support 0.5; }
private() { "$cli" private --in "$1" --min-support 0.5; }
randomize() { "$cli" randomize --in "$1" -o "$dir/out.tagged"; }
stats() { "$cli" stats --in "$1"; }
stats_fimi() { "$cli" stats --fimi --in "$1"; }
recover() { "$cli" recover --in "$1" --itemset 1 --operator uniform; }
convert() { "$cli" convert "$1" "$dir/out.ppdmc"; }

failures=0
# expect_rejected RUN CMD SUFFIX: RUN on each bad input must fail as CMD
expect_rejected() {
  for kind in malformed missing huge; do
    status=0
    "$1" "$dir/$kind$3" >/dev/null 2>"$dir/err" || status=$?
    if [ "$status" -ne 1 ] || ! grep -q "^$2: " "$dir/err" ||
      grep -q "uncaught exception" "$dir/err"; then
      echo "FAIL: $1 on the $kind input: exit $status" >&2
      cat "$dir/err" >&2
      failures=$((failures + 1))
    fi
  done
}
expect_rejected mine mine .txt
expect_rejected private private .txt
expect_rejected randomize randomize .txt
expect_rejected stats stats .txt
expect_rejected stats_fimi stats .txt
expect_rejected recover recover .tagged
expect_rejected convert convert .txt
test "$failures" -eq 0
