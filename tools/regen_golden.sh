#!/usr/bin/env bash
# Rewrite tests/golden/<case>.txt from the current source and report which
# fields moved. Use it only for a change that alters fixed-seed behaviour
# on purpose, and commit the rewritten files with that change so the diff
# shows exactly what moved.
#
#   tools/regen_golden.sh [build-dir]        (default: build)
#
# golden_test writes every case's rendering to <build-dir>/tests/
# golden_actual/ on each run, pass or fail; this script runs it and copies
# those files over the committed ones.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD="${1:-$ROOT/build}"
GOLDEN="$ROOT/tests/golden"
ACTUAL="$BUILD/tests/golden_actual"

cmake --build "$BUILD" --target golden_test -j "$(nproc)"
rm -rf "$ACTUAL"
rc=0
"$BUILD/tests/golden_test" > /dev/null || rc=$?
# 1 = some case mismatched (expected here); anything else is a crash.
if [[ $rc -gt 1 ]]; then
  echo "golden_test exited $rc; golden files left untouched" >&2
  exit 1
fi

mkdir -p "$GOLDEN"
moved=0
for actual in "$ACTUAL"/*.txt; do
  name="$(basename "$actual")"
  committed="$GOLDEN/$name"
  if [[ -f "$committed" ]] && cmp -s "$committed" "$actual"; then continue; fi
  moved=$((moved + 1))
  echo "${name%.txt}:"
  if [[ -f "$committed" ]]; then
    # Changed fields as "-field old" / "+field new" lines.
    diff -U0 "$committed" "$actual" | grep '^[-+][^-+]' | sed 's/^/  /' || true
  else
    echo "  (new case)"
  fi
  cp "$actual" "$committed"
done
for committed in "$GOLDEN"/*.txt; do
  [[ -e "$committed" ]] || continue
  [[ -f "$ACTUAL/$(basename "$committed")" ]] ||
    echo "$(basename "$committed" .txt): no such case any more; delete $committed by hand"
done
echo "$moved golden file(s) rewritten"
