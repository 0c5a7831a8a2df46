#!/bin/sh
# Bad grid arguments are refused when the command line is parsed: a
# non-zero exit before any trial runs, and nothing on stdout.
# Usage: cli_errors.sh REPRO_EXE
set -u
repro=$1
# Each refusal runs under a 10 s timeout, so a spec that used to hang
# fails here instead of hanging the suite (143: killed by the timeout).
refused() {
  timeout --preserve-status 10 "$repro" "$@" > refused.out 2> refused.err
  status=$?
  test "$status" -ne 0 || { echo "accepted: repro $*"; cat refused.out; exit 1; }
  test "$status" -ne 143 || { echo "timed out: repro $*"; exit 1; }
  test ! -s refused.out || { echo "repro $* printed:"; cat refused.out; exit 1; }
}
# An unknown ablation study, even after a valid one.
refused ablate spatial bogus --fast --trials 1
grep -q "bogus" refused.err || { echo "stderr does not name the study:"; cat refused.err; exit 1; }
# A capacity ratio must be positive and finite, for every command.
for r in 0 -0.5 nan inf; do
  refused run -w tpch -p clock --ratio="$r" --fast --trials 1
  refused regret -w tpch -p clock --ratio="$r" --fast --trials 1
done
# Times under 1 ns or past the int range are refused, not read as 0: a
# 0 ns PSI or probe tick would repeat at t=0 forever, and a chaos
# at=1e300s would fire at the start.
for cg in 'psi:interval=0.0001us' 'proactive:interval=0.0001us' 'psi:interval=1e300s'; do
  refused run -w tpch -p clock --fast --trials 1 --cgroups "a:threads=0-1;$cg"
  grep -q '^repro: .*1:[0-9]*: interval: time' refused.err \
    || { echo "no 1:COL: error for --cgroups $cg:"; cat refused.err; exit 1; }
done
refused run -w tpch -p clock --fast --trials 1 --chaos 'hotplug:at=1e300s,shrink=10'
grep -q '1:12: at: time "1e300s" out of range' refused.err \
  || { echo "no 1:COL: error for at=1e300s:"; cat refused.err; exit 1; }
# Above 1 stays allowed: memory to spare.
"$repro" run -w tpch -p clock -r 1.5 --fast --trials 1 > spare.out || exit 1
grep -q '150%' spare.out || { echo "ratio 1.5 not run:"; cat spare.out; exit 1; }
