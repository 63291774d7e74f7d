#!/bin/sh
# Ledger regression gate: builds bench/ledger/ledger.exe at two git
# revisions and runs 10 alternated pairs of
#   ledger.exe run --quick --reps 1 --seed s --out {base,head}.jsonl
# (odd seeds base first, even seeds head first), then
#   ledger.exe compare base.jsonl head.jsonl
# with the base revision's ledger, so a change never judges itself.
# Exits with compare's status: 1 on any `worse` verdict.
#
#   sh bench/ledger_compare.sh BASE_REV [HEAD_REV]
#
# HEAD_REV defaults to HEAD. Both sets, compare.txt and the run logs
# land in ./ledger-compare. Each revision is exported with
# `git archive` into $TMPDIR/ledger-compare-builds/<sha>, outside the
# dune workspace, and built there; an existing build is reused.
set -eu

base_rev=${1:?usage: ledger_compare.sh BASE_REV [HEAD_REV]}
head_rev=${2:-HEAD}
pairs=10
out=$(pwd)/ledger-compare
builds=${TMPDIR:-/tmp}/ledger-compare-builds

mkdir -p "$out"

build() {
  sha=$(git rev-parse --verify "$1^{commit}")
  dir="$builds/$sha"
  if [ ! -x "$dir/_build/default/bench/ledger/ledger.exe" ]; then
    rm -rf "$dir"
    mkdir -p "$dir"
    git archive "$sha" | tar -x -C "$dir"
    (cd "$dir" && dune build --root . ./bench/ledger/ledger.exe) >&2
  fi
  echo "$dir/_build/default/bench/ledger/ledger.exe"
}

base_exe=$(build "$base_rev")
head_exe=$(build "$head_rev")
rm -f "$out"/*.jsonl "$out"/*.log "$out/compare.txt"

run() {
  "$2" run --quick --reps 1 --seed "$3" --out "$out/$1.jsonl" \
    > "$out/$1-seed$3.log" 2>&1
}

s=1
while [ "$s" -le "$pairs" ]; do
  if [ $((s % 2)) -eq 1 ]; then
    run base "$base_exe" "$s"; run head "$head_exe" "$s"
  else
    run head "$head_exe" "$s"; run base "$base_exe" "$s"
  fi
  s=$((s + 1))
done

set +e
"$base_exe" compare "$out/base.jsonl" "$out/head.jsonl" > "$out/compare.txt"
rc=$?
set -e
cat "$out/compare.txt"
exit "$rc"
