#!/bin/sh
# Validate a `calm ... --record DIR` directory. DIR must hold exactly the
# files every record writes (metrics.json, profile.json, profile.folded,
# series.jsonl, trace.json) plus the EXTRA names given: each one missing
# and each file not expected is reported, then the script exits 1. Each
# JSON/JSONL file is then checked against its schema (`calm validate`,
# the kind chosen by file name) and every other file for being
# non-empty. Prints one line per file and stops at the first failure.
#
#   sh examples/observe/validate-record.sh DIR [EXTRA...]
#
# e.g. `DIR traces.jsonl` for a sweep record and
# `DIR causal.json hb.dot causal-chrome.json` for a run record.
# CALM names the calm command (default: dune exec bin/calm.exe --).
set -e
calm=${CALM:-dune exec bin/calm.exe --}
dir=$1
shift
expected="metrics.json profile.json profile.folded series.jsonl trace.json $*"
bad=0
for name in $expected; do
  if ! test -e "$dir/$name"; then
    echo "$dir/$name: missing" >&2
    bad=1
  fi
done
for f in "$dir"/*; do
  test -e "$f" || continue
  case " $expected " in
    *" ${f##*/} "*) ;;
    *)
      echo "$f: not expected in this record" >&2
      bad=1
      ;;
  esac
done
test "$bad" -eq 0 || exit 1
for name in $expected; do
  f=$dir/$name
  case $name in
    metrics.json) kind=metrics ;;
    profile.json) kind=profile ;;
    series.jsonl) kind=series ;;
    trace.json | causal-chrome.json) kind=trace ;;
    causal.json) kind=causal ;;
    traces.jsonl) kind=traces ;;
    *)
      if ! test -s "$f"; then
        echo "$f: empty" >&2
        exit 1
      fi
      echo "$f: non-empty"
      continue
      ;;
  esac
  $calm validate --kind "$kind" "$f"
done
