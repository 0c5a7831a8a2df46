#!/bin/sh
# Bad grid arguments are refused when the command line is parsed: a
# non-zero exit before any trial runs, and nothing on stdout.
# Usage: cli_errors.sh REPRO_EXE
set -u
repro=$1
refused() {
  if "$repro" "$@" > refused.out 2> refused.err; then
    echo "accepted: repro $*"; cat refused.out; exit 1
  fi
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
# Above 1 stays allowed: memory to spare.
"$repro" run -w tpch -p clock -r 1.5 --fast --trials 1 > spare.out || exit 1
grep -q '150%' spare.out || { echo "ratio 1.5 not run:"; cat spare.out; exit 1; }
