#!/bin/sh
# Checks navbench's simulated outcome: runs every workload once (seed 1;
# `--seconds 0` runs only the fixed simulated rounds, no timed phase) and
# compares its sim_digest with the pin below. A host-only change leaves
# every simulated number as it was; a change that moves them on purpose
# updates these pins and says why.
#
#   tools/check_sim_digests.sh [navbench binary]
#
# The binary defaults to .bench_build/navbench, the one navbench/run.py
# builds. The same check runs a sanitized build: a workload fails on a
# nonzero exit, on an AddressSanitizer/UBSan report, or on a digest that
# differs from its pin.
set -u

navbench=${1:-.bench_build/navbench}
log=$(mktemp)
trap 'rm -f "$log"' EXIT
fail=0
for pinned in scan_closed=fe8d2d15e31fc0b3 serve_open=34e7d47ff1251b5b \
              paper_single=c88e0b90573626ee shard_batch=7335c325c50bcfbf; do
  workload=${pinned%%=*}
  want=${pinned#*=}
  status=0
  out=$("$navbench" --workload "$workload" --seed 1 --seconds 0 --trace 0 \
          2>"$log") || status=$?
  digest=$(printf '%s\n' "$out" | awk '/sim_digest/ {print $2}')
  echo "$workload: sim_digest $digest, pinned $want"
  if [ "$status" -ne 0 ]; then
    tail -n 40 "$log" >&2
    echo "$workload: navbench exited $status" >&2
    fail=1
  elif grep -E 'Sanitizer|runtime error' "$log" >&2; then
    echo "$workload: sanitizer report" >&2
    fail=1
  fi
  [ "$digest" = "$want" ] || fail=1
done
exit "$fail"
