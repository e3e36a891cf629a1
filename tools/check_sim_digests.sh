#!/bin/sh
# Checks navbench's simulated outcome: runs every workload at seeds 1-3
# (`--seconds 0` runs only the fixed simulated rounds, no timed phase) and
# compares each sim_digest with its pin below. A host-only change leaves
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
# workload:seed=pinned sim_digest
for pinned in \
    scan_closed:1=fe8d2d15e31fc0b3 scan_closed:2=cfbada53a2aef801 \
    scan_closed:3=324cf55979239ac0 \
    serve_open:1=1463f70cebac3e33 serve_open:2=7364d8d27efcd7ff \
    serve_open:3=e3f19afff1badf87 \
    paper_single:1=c88e0b90573626ee paper_single:2=644ab4e673976c6c \
    paper_single:3=bc6c8488b0cfaac9 \
    shard_batch:1=7335c325c50bcfbf shard_batch:2=6bede5dfe31b6365 \
    shard_batch:3=79e97c74ab48b060; do
  run=${pinned%%=*}
  workload=${run%%:*}
  seed=${run#*:}
  want=${pinned#*=}
  status=0
  out=$("$navbench" --workload "$workload" --seed "$seed" --seconds 0 \
          --trace 0 2>"$log") || status=$?
  digest=$(printf '%s\n' "$out" | awk '/sim_digest/ {print $2}')
  echo "$workload seed $seed: sim_digest $digest, pinned $want"
  if [ "$status" -ne 0 ]; then
    tail -n 40 "$log" >&2
    echo "$workload seed $seed: navbench exited $status" >&2
    fail=1
  elif grep -E 'Sanitizer|runtime error' "$log" >&2; then
    echo "$workload seed $seed: sanitizer report" >&2
    fail=1
  fi
  [ "$digest" = "$want" ] || fail=1
done
exit "$fail"
