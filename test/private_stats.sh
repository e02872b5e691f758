#!/bin/sh
# `ppdm private --stats json` must leave stdout byte-identical to a plain
# run and must report the estimator's condition-number gauges.
# Usage: private_stats.sh PPDM_CLI JSON_CHECK
set -eu
# Bare names (no slash) are files in the current directory.
path() { case $1 in */*) echo "$1" ;; *) echo "./$1" ;; esac; }
cli=$(path "$1")
json_check=$(path "$2")
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
"$cli" gen --universe 20 --count 10000 --size 4 --seed 5 -o "$dir/db.txt" >/dev/null
"$cli" private -i "$dir/db.txt" --min-support 0.05 --max-size 2 >"$dir/plain.out"
"$cli" private -i "$dir/db.txt" --min-support 0.05 --max-size 2 --stats json \
  >"$dir/stats.out" 2>"$dir/stats.jsonl"
cmp "$dir/plain.out" "$dir/stats.out"
"$json_check" <"$dir/stats.jsonl" >/dev/null
grep -q '"type":"gauge","name":"estimator.cond.s4.k1"' "$dir/stats.jsonl"
grep -q '"type":"gauge","name":"estimator.cond.s4.k2"' "$dir/stats.jsonl"
