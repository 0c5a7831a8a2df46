#!/bin/sh
# Resuming a journal under another run configuration must stop before
# any trial runs and name the differing fields; a matching resume still
# warm-starts, never finds a record computed under other inputs, and
# reruns the trial of a record it cannot decode.
# Usage: stale_resume.sh REPRO_EXE GOLDEN_JOURNAL
set -u
repro=$1
golden=$2
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
# A record with a valid checksum whose array does not parse is one
# invalid record: the resume skips it, reruns its trial and prints what
# a fresh run prints.
flags="run -w tpch -p mglru -r 0.5 --fast --trials 2 --jobs 1
  --cgroups app:threads=0-1,high=25%;bg:threads=2-3,low=20%
  --chaos hotplug:at=1s,shrink=10%,restore=2s --folded golden.folded"
"$repro" $flags > golden-fresh.out || exit 1
payload=$(sed -n 2p "$golden" | cut -c43- |
  sed 's/"per_thread_finish":"[^"]*"/"per_thread_finish":"7 x"/')
sum=$(printf '%s' "$payload" | md5sum | cut -c1-32)
{
  sed -n 1p "$golden"
  printf '{"sum":"%s",%s\n' "$sum" "$payload"
  sed -n 3p "$golden"
} > tampered.jsonl
"$repro" $flags --journal tampered.jsonl --resume > tampered.out \
    2> tampered.err || { echo "resume exited $?:"; cat tampered.err; exit 1; }
grep -q 'skipping invalid record at line 2' tampered.err &&
  grep -q 'warm-started 1 trial' tampered.err || { cat tampered.err; exit 1; }
test "$(wc -l < tampered.jsonl)" -eq 3 ||
  { echo "resume did not rerun exactly one trial"; exit 1; }
cmp golden-fresh.out tampered.out ||
  { echo "resume of a malformed record changed the output"; exit 1; }
