#!/bin/sh
# Reach lint: every module under lib/ must be named by some .ml or .mli
# in lib/, bin/, bench/ or examples/ other than its own two files, so
# library surface that only its own tests reach cannot pile up.
#
# Names come from `ocamldep -modules`, so comments and strings do not
# count.  ocamldep reports only the head of a path, so a library-
# qualified reference such as Ppdm_obs.Report is first rewritten to
# Report in a scratch copy of the file.
#
# Usage: reach_lint.sh OCAMLDEP ROOT
set -eu
ocamldep=$1
cd "$2"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# The wrapper module of every library under lib/, as a sed alternation.
capitalize='{ printf "%s%s%s", sep, toupper(substr($0, 1, 1)), substr($0, 2) }'
libs=$(sed -n 's/.*(name \([a-z0-9_]*\).*/\1/p' lib/*/dune |
  awk "$capitalize"' { sep = "|" }')

# One "FILE MODULE" line for every module each source file names.
find lib bin bench examples -name '.*' -prune -o \
  \( -name '*.ml' -o -name '*.mli' \) -print | sort | while read -r f; do
  copy="$tmp/x.${f##*.}"
  sed -E "s/(^|[^A-Za-z0-9_'.])($libs)\.([A-Z])/\1\3/g" "$f" >"$copy"
  "$ocamldep" -modules "$copy" | cut -d: -f2 | tr ' ' '\n' |
    awk -v f="$f" 'NF { print f, $0 }'
done >"$tmp/refs"

# Each module once (from its .ml or .mli), flagged when no other file
# names it.
for f in lib/*/*.ml lib/*/*.mli; do echo "${f%.*}"; done | sort -u |
  while read -r own; do
    m=$(echo "${own##*/}" | awk "$capitalize")
    awk -v m="$m" -v own="$own" \
      '$2 == m && $1 != own ".ml" && $1 != own ".mli" { found = 1 }
       END { exit !found }' "$tmp/refs" ||
      echo "reach lint: $own ($m) is named by nothing outside its own files"
  done >"$tmp/unreached"

if [ -s "$tmp/unreached" ]; then
  cat "$tmp/unreached" >&2
  exit 1
fi
