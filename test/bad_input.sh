#!/bin/sh
# Every command that reads a data file must reject a malformed file, a
# missing file and a header with a huge transaction count with exit 1
# and a "<cmd>: " message on stderr, never an uncaught exception.  The
# commands that estimate (private, recover) reject a file with no rows
# the same way, as "<cmd>: <path>: ".  An operator whose keep and add
# probabilities coincide carries no signal: private and recover reject
# it the same way, and analyze reports it.  The --db readers (mine,
# private, recover) reject a garbage, a missing, a truncated and a
# version-1 .ppdmc file as "<cmd>: <path>: ", exit 1.  recover rejects an
# empty itemset or an item outside the input's universe on both routes
# as a usage error, exit 2, and serve rejects such a tracked itemset the
# same way; recover rejects a tagged size above the universe and a
# --scheme file for another universe or with an operator that is not a
# distribution (NaN included) as "recover: <path>: ", exit 1.
# convert rejects a non-positive --universe as a usage error, names its
# output when it cannot write it, and rejects a source that changes
# between its two passes (a pipe).  gen's and randomize's outputs,
# randomize's --scheme-out and any command's --trace file that cannot
# be written are "<cmd>: <path>: ", exit 1.  load reads its --in file
# before it connects, so a bad one is "load: <path>: ", exit 1, even
# with no server.  An out-of-range operator, universe, size or serve
# flag is a usage error, exit 2, "<cmd>: --flag "; load against a closed
# port or a server that refuses its operator exits 1 as
# "load: 127.0.0.1:<port>: ", and serve on a port another serve holds
# exits 1 as "serve: 127.0.0.1:<port>: Address already in use".
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

# Files with no rows, as gen, randomize and convert write them from an
# empty database.
printf 'universe 100 transactions 0\n' >"$dir/empty.txt"
printf 'tagged 100 transactions 0\n' >"$dir/empty.tagged"
"$cli" convert "$dir/empty.txt" "$dir/empty.ppdmc" >/dev/null
# expect_empty CMD FILE ARGS...: CMD on the empty FILE must fail with exit
# 1 and a "CMD: FILE: " message
expect_empty() {
  cmd=$1 file=$2
  shift 2
  status=0
  "$cli" "$cmd" "$@" >/dev/null 2>"$dir/err" || status=$?
  if [ "$status" -ne 1 ] || ! grep -q "^$cmd: $file: " "$dir/err"; then
    echo "FAIL: $cmd on the empty $file: exit $status" >&2
    cat "$dir/err" >&2
    failures=$((failures + 1))
  fi
}
expect_empty recover "$dir/empty.tagged" --in "$dir/empty.tagged" --itemset 1
expect_empty private "$dir/empty.txt" --in "$dir/empty.txt" --min-support 0.5
expect_empty private "$dir/empty.ppdmc" --db "$dir/empty.ppdmc" --min-support 0.5

# An unrecoverable operator on valid input.
uninformative="--operator uniform --p-keep 0.5 --p-add 0.5"
"$cli" gen --universe 10 --count 200 --size 3 --seed 1 -o "$dir/db.txt" >/dev/null
"$cli" randomize --in "$dir/db.txt" -o "$dir/db.tagged" >/dev/null
expect_unrecoverable() {
  status=0
  "$cli" "$@" >/dev/null 2>"$dir/err" || status=$?
  if [ "$status" -ne 1 ] ||
    ! grep -q "^$1: size class [0-9]* is unrecoverable at k = [0-9]*$" "$dir/err"; then
    echo "FAIL: $1 with an unrecoverable operator: exit $status" >&2
    cat "$dir/err" >&2
    failures=$((failures + 1))
  fi
}
expect_unrecoverable private --in "$dir/db.txt" --min-support 0.5 $uninformative
expect_unrecoverable recover --in "$dir/db.tagged" --itemset 1,2 $uninformative
status=0
"$cli" analyze $uninformative >"$dir/out" 2>"$dir/err" || status=$?
if [ "$status" -ne 0 ] ||
  ! grep -q "^lowest discoverable support (k=1, N=100k): unrecoverable$" "$dir/out"; then
  echo "FAIL: analyze with an unrecoverable operator: exit $status" >&2
  cat "$dir/out" "$dir/err" >&2
  failures=$((failures + 1))
fi

# expect_fail STATUS PATTERN ARGS...: the command must exit STATUS with a
# stderr line matching PATTERN and no uncaught exception
expect_fail() {
  want=$1 pattern=$2
  shift 2
  status=0
  "$cli" "$@" >/dev/null 2>"$dir/err" || status=$?
  if [ "$status" -ne "$want" ] || ! grep -q "$pattern" "$dir/err" ||
    grep -q "uncaught exception" "$dir/err"; then
    echo "FAIL: $* (want exit $want, /$pattern/): exit $status" >&2
    cat "$dir/err" >&2
    failures=$((failures + 1))
  fi
}

# Bad .ppdmc files for the --db readers.
"$cli" convert "$dir/db.txt" "$dir/db.ppdmc" >/dev/null
printf 'not a columnar file\n' >"$dir/garbage.ppdmc"
head -c 100 "$dir/db.ppdmc" >"$dir/truncated.ppdmc"
# a complete version-1 file: universe 1, no transactions, one empty item
{
  printf 'PPDMC\000\001\000\001'
  head -c 47 /dev/zero
} >"$dir/v1.ppdmc"
for kind in garbage missing truncated v1; do
  f="$dir/$kind.ppdmc"
  expect_fail 1 "^mine: $f: " mine --db "$f" --min-support 0.5
  expect_fail 1 "^private: $f: " private --db "$f" --min-support 0.5
  expect_fail 1 "^recover: $f: " recover --db "$f" --itemset 1
done
expect_fail 1 "^mine: $dir/v1.ppdmc: unsupported PPDMC version 1$" \
  mine --db "$dir/v1.ppdmc" --min-support 0.5

# A tagged size above the declared universe is malformed, and a scheme
# file must be for the tagged file's universe.
printf 'tagged 10 transactions 2\n50|1 2\n3|1\n' >"$dir/above.tagged"
printf 'tagged 10 transactions 1\n4611686018427387903|1\n' >"$dir/max.tagged"
for f in "$dir/above.tagged" "$dir/max.tagged"; do
  expect_fail 1 "^recover: $f: " recover --in "$f" --itemset 1
done
"$cli" randomize --in "$dir/db.txt" -o "$dir/scheme.tagged" \
  --scheme-out "$dir/db.scheme" >/dev/null
printf 'tagged 11 transactions 1\n3|1\n' >"$dir/wider.tagged"
expect_fail 1 "^recover: $dir/db.scheme: " recover --in "$dir/wider.tagged" \
  --scheme "$dir/db.scheme" --itemset 1
# An operator that is not a distribution is a bad scheme file, found
# when the file is read: keep summing to 1.4, rho above 1, a NaN keep
# probability, a NaN rho.
bad_scheme=1
for op in "rho 0.1 keep 0.4 0.4 0.3 0.3" "rho 1.5 keep 0.25 0.25 0.25 0.25" \
  "rho 0.1 keep nan 1 0 0" "rho nan keep 0.25 0.25 0.25 0.25"; do
  f="$dir/bad$bad_scheme.scheme"
  printf 'ppdm-scheme 1\nuniverse 10\nname bad\nsize 3 %s\n' "$op" >"$f"
  expect_fail 1 "^recover: $f: " recover --in "$dir/db.tagged" \
    --scheme "$f" --itemset 1
  bad_scheme=$((bad_scheme + 1))
done

# recover --itemset: empty or outside the universe (10) on both routes.
for itemset in "" 500; do
  expect_fail 2 "^recover: --itemset: " recover --in "$dir/db.tagged" \
    --itemset "$itemset"
  expect_fail 2 "^recover: --itemset: " recover --db "$dir/db.ppdmc" \
    --itemset "$itemset"
done

# convert: a usage error, an output it cannot open, a changing source.
expect_fail 2 "^convert: --universe 0 must be positive$" \
  convert --universe 0 "$dir/db.txt" "$dir/out.ppdmc"
expect_fail 1 "^convert: $dir/no/such/dir/out.ppdmc: " \
  convert "$dir/db.txt" "$dir/no/such/dir/out.ppdmc"
# Outputs that cannot be written: every writer names its file.
nowhere="$dir/no/such/dir"
expect_fail 1 "^gen: $nowhere/x.txt: " gen --count 10 -o "$nowhere/x.txt"
expect_fail 1 "^randomize: $nowhere/r.tagged: " randomize --in "$dir/db.txt" \
  -o "$nowhere/r.tagged"
expect_fail 1 "^randomize: $nowhere/s: " randomize --in "$dir/db.txt" \
  -o "$dir/out.tagged" --scheme-out "$nowhere/s"
expect_fail 1 "^mine: $nowhere/t.json: " mine --in "$dir/db.txt" \
  --min-support 0.5 --trace "$nowhere/t.json"
status=0
cat "$dir/db.txt" | "$cli" convert /dev/stdin "$dir/out.ppdmc" >/dev/null \
  2>"$dir/err" || status=$?
if [ "$status" -ne 1 ] || ! grep -q "^convert: /dev/stdin: " "$dir/err"; then
  echo "FAIL: convert from a pipe: exit $status" >&2
  cat "$dir/err" >&2
  failures=$((failures + 1))
fi

# Out-of-range flags are usage errors, exit 2, found before any input is
# read (the inputs named here do not exist, and no server listens on
# port 1).  No serve below gets as far as binding its port.
for cmd in analyze randomize private recover load; do
  case $cmd in
  randomize) io="--in $dir/missing.txt -o $dir/out.tagged" ;;
  private) io="--in $dir/missing.txt" ;;
  recover) io="--in $dir/missing.tagged --itemset 1" ;;
  load) io="--in $dir/missing.txt --port 1" ;;
  *) io="" ;;
  esac
  for flags in "--operator uniform --p-keep 2" "--operator uniform --p-add 1.5" \
    "--operator cutpaste --rho 1.5" "--operator optimized --rho 1.5" \
    "--gamma 0.5" "--gamma nan"; do
    flag=${flags##*--}
    # shellcheck disable=SC2086
    expect_fail 2 "^$cmd: --${flag%% *} " "$cmd" $io $flags
  done
done
expect_fail 2 "^randomize: --rho 3 " randomize --in "$dir/db.txt" \
  -o "$dir/out.tagged" --operator cutpaste --rho 3
expect_fail 2 "^gen: --universe 0 " gen --universe 0 -o "$dir/gen.txt"
expect_fail 2 "^gen: --size 200 " gen --kind fixed --size 200 --universe 100 \
  -o "$dir/gen.txt"
expect_fail 2 "^analyze: --universe 0 " analyze --universe 0
expect_fail 2 "^analyze: --size 20 " analyze --universe 10 --size 20
for flags in "universe 0" "shards 0" "batch 0" "queue-capacity 0" "max-frame 8"; do
  # shellcheck disable=SC2086
  expect_fail 2 "^serve: --$flags " serve --port 0 --$flags
done
# serve's tracked itemsets are checked as recover's: not empty, inside
# --universe; --singletons is not negative.
for itemset in 7 -2 ""; do
  expect_fail 2 "^serve: --itemset: " serve --port 0 --universe 5 \
    "--itemset=$itemset"
done
expect_fail 2 "^serve: --singletons -1 " serve --port 0 --singletons=-1

# load: a bad --in file is named before any connection; a server that
# is not there, or that refuses the operator, is
# "load: 127.0.0.1:<port>: ", exit 1.
for kind in malformed missing huge; do
  expect_fail 1 "^load: $dir/$kind.txt: " load --in "$dir/$kind.txt" --port 1
done
"$cli" gen --kind fixed --universe 64 --size 4 --count 100 --seed 1 \
  -o "$dir/db64.txt" >/dev/null
expect_fail 1 "^load: 127.0.0.1:1: " load --in "$dir/db64.txt" --port 1
"$cli" serve --port 0 --universe 64 --singletons 3 >"$dir/serve.out" 2>&1 &
serve_pid=$!
port=
for _ in $(seq 1 100); do
  port=$(sed -n 's/.*listening on 127.0.0.1:\([0-9]*\) .*/\1/p' "$dir/serve.out")
  [ -n "$port" ] && break
  sleep 0.1
done
if [ -z "$port" ]; then
  echo "FAIL: serve did not start" >&2
  cat "$dir/serve.out" >&2
  kill "$serve_pid" 2>/dev/null || true
  failures=$((failures + 1))
else
  expect_fail 1 "^load: 127.0.0.1:$port: scheme-mismatch: " load --port "$port" \
    --in "$dir/db64.txt" --operator uniform
  # a second serve on the port the first holds; killed if it ever binds
  "$cli" serve --port "$port" --universe 64 >/dev/null 2>"$dir/err" &
  second_pid=$!
  for _ in $(seq 1 100); do
    kill -0 "$second_pid" 2>/dev/null || break
    sleep 0.1
  done
  kill "$second_pid" 2>/dev/null || true
  status=0
  wait "$second_pid" || status=$?
  if [ "$status" -ne 1 ] ||
    ! grep -q "^serve: 127.0.0.1:$port: Address already in use$" "$dir/err"; then
    echo "FAIL: serve on a port in use: exit $status" >&2
    cat "$dir/err" >&2
    failures=$((failures + 1))
  fi
  "$cli" load --port "$port" --in "$dir/db64.txt" --shutdown >/dev/null
fi
wait "$serve_pid" || true

test "$failures" -eq 0
