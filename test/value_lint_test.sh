#!/bin/sh
# Checks the value lint itself on a scratch copy of the built tree: the
# copy links every built directory of lib/, bin/, bench/ and examples/
# and adds fixture units compiled with -bin-annot.
#  - a planted library value that nothing names fails the lint, and the
#    failure names it;
#  - the allowlisted Trace.reset, once named only through a module
#    alias, or only through its library-qualified path, is reached:
#    the lint passes without its allowlist entry.
#
# Usage: value_lint_test.sh VALUE_LINT OCAMLC BUILD_ROOT ALLOWLIST
set -eu
abs() { echo "$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"; }
lint=$(abs "$1")
ocamlc=$2
root=$(cd "$3" && pwd)
allow=$(abs "$4")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail() {
  echo "value lint test: $*" >&2
  exit 1
}

# tree NAME: a fresh scratch tree whose lib/fixture/ is empty.
tree() {
  t="$tmp/$1"
  mkdir -p "$t/lib/fixture"
  for d in bin bench examples; do ln -s "$root/$d" "$t/$d"; done
  for d in "$root"/lib/*/; do ln -s "$d" "$t/lib/$(basename "$d")"; done
  echo "$t"
}

# compile TREE FILE: FILE (relative to TREE) with its typed tree kept,
# against the built ppdm_obs library.
compile() {
  (cd "$1" && "$ocamlc" -bin-annot -c -I lib/fixture \
    -I "$root/lib/obs/.ppdm_obs.objs/byte" "$2")
}

# The real tree passes as built.
"$lint" "$root" "$allow" >/dev/null || fail "the built tree does not pass"

# A planted value that only its own implementation names.
t=$(tree planted)
printf 'val planted_value : int\n' >"$t/lib/fixture/planted.mli"
printf 'let planted_value = 1\nlet _ = planted_value + 1\n' \
  >"$t/lib/fixture/planted.ml"
compile "$t" lib/fixture/planted.mli
compile "$t" lib/fixture/planted.ml
if "$lint" "$t" "$allow" >/dev/null 2>"$tmp/planted.err"; then
  fail "a planted value that nothing names passes"
fi
grep -q "lib/fixture/planted.mli: Planted.planted_value is named by nothing" \
  "$tmp/planted.err" || fail "the failure does not name the planted value:
$(cat "$tmp/planted.err")"

# Trace.reset named through an alias, then through the qualified path.
grep -v '^Trace\.reset ' "$allow" >"$tmp/no_reset.allow"
"$lint" "$root" "$tmp/no_reset.allow" >/dev/null 2>&1 &&
  fail "Trace.reset is reached without a fixture; pick another value"
for use in 'module T = Ppdm_obs.Trace\nlet () = T.reset ()\n' \
  'let () = Ppdm_obs.Trace.reset ()\n'; do
  t=$(tree "use$(ls "$tmp" | wc -l)")
  printf "$use" >"$t/lib/fixture/user.ml"
  compile "$t" lib/fixture/user.ml
  "$lint" "$t" "$tmp/no_reset.allow" >/dev/null 2>"$tmp/use.err" ||
    fail "Trace.reset named as
$(printf "$use")
is not reached:
$(cat "$tmp/use.err")"
done
