#!/bin/sh
# Resuming a journal under another run configuration must stop before
# any trial runs and name the differing fields; a matching resume still
# warm-starts, and never finds a record computed under other inputs.
# Usage: stale_resume.sh REPRO_EXE
set -u
repro=$1
j=stale-resume.jsonl
rm -f "$j"
"$repro" run -w tpch -p clock --fast --trials 1 --journal "$j" > first.out || exit 1
if "$repro" run -w tpch -p clock --trials 1 --faults heavy --journal "$j" \
    --resume > stale.out 2> stale.err; then
  echo "stale resume accepted:"; cat stale.out; exit 1
fi
for field in fast faults; do
  grep -q "$field (" stale.err || { echo "stderr does not name $field:"; cat stale.err; exit 1; }
done
test ! -s stale.out || { echo "stale resume printed results:"; cat stale.out; exit 1; }
"$repro" run -w tpch -p clock --fast --trials 1 --journal "$j" --resume \
    > resumed.out 2> resumed.err || exit 1
grep -q 'warm-started 1 trial' resumed.err || { cat resumed.err; exit 1; }
cmp first.out resumed.out || exit 1
# Served, not recomputed: nothing was appended after header and record.
test "$(wc -l < "$j")" -eq 2 || { echo "resume recomputed the journaled trial"; exit 1; }
# A derived context's records are keyed by the inputs that produced
# them: a plain run resumed from a chaos report's journal must print
# what a fresh run prints, not the chaos-injected trial.
rm -f "$j"
"$repro" chaos --fast -w tpch -p clock --class hotplug --journal "$j" \
    > chaos.out || exit 1
"$repro" run -w tpch -p clock -r 0.5 --fast --trials 1 --journal "$j" \
    --resume > after-chaos.out 2> after-chaos.err || exit 1
cmp first.out after-chaos.out ||
  { echo "resume after chaos served a stale result"; exit 1; }
