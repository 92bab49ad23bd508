#!/bin/sh
# Tier-1 check: build, full test suite, a determinism smoke — the
# plan/execute/render pipeline must print byte-identical output whether
# the execute stage runs on 1 domain or 4, and that output must match the
# committed golden digest — a cold/warm store equivalence
# gate, Ruby and PHP store gates (fig10-12's and fig5/fig7/tab4's store
# entries matching their committed digests), a serving-simulator gate
# (deterministic across -j, warm rerun fully store-served, a
# policy-heavy run matching its committed golden digest), a
# fault-injection gate (injected faults must not
# change a single output byte, the chaos drills must pass, and the store
# suite must pass with injection armed), a benchmark self-test, and a
# perf smoke that times one small experiment and one serving sweep so
# hot-path regressions show up in CI logs.
set -eu

cd "$(dirname "$0")"

# Every build/test/smoke step runs under a global timeout so a deadlock
# (a stuck worker domain, a lost lockfile) fails the check instead of
# hanging CI forever.  Override with CHECK_TIMEOUT (seconds).
if command -v timeout >/dev/null 2>&1; then
  TO="timeout -k 10 ${CHECK_TIMEOUT:-1500}"
else
  TO=""
fi

echo "== dune build =="
$TO dune build

echo "== dune runtest =="
$TO dune runtest

MMSTUDY=./_build/default/bin/mmstudy.exe

echo "== determinism smoke: mmstudy run all at -j 1 vs -j 4 (no cache) =="
out1=$(mktemp) && out4=$(mktemp)
trap 'rm -f "$out1" "$out4"' EXIT
$TO $MMSTUDY run all --scale 0.05 -j 1 --no-cache > "$out1"
$TO $MMSTUDY run all --scale 0.05 -j 4 --no-cache > "$out4"
if ! diff -u "$out1" "$out4"; then
  echo "FAIL: run-all output differs between -j 1 and -j 4" >&2
  exit 1
fi
echo "byte-identical."

echo "== golden digest: run-all output must match the committed md5 =="
# The diffs in this script compare one build with itself; this gate pins
# the output across commits.  A change that moves any byte must bump the
# simulator fingerprint and re-record test/golden/run_all_scale0.05.md5.
golden=test/golden/run_all_scale0.05.md5
fpdir=$(mktemp -d)
fingerprint=$(MMSTUDY_CACHE_DIR="$fpdir" $MMSTUDY cache stats | sed -n 's/^fingerprint: *//p')
rm -rf "$fpdir"
want_fp=$(sed -n 's/^fingerprint //p' "$golden")
want_md5=$(sed -n 's/^md5 //p' "$golden")
got_md5=$(md5sum < "$out4" | cut -d' ' -f1)
if [ "$fingerprint" != "$want_fp" ]; then
  echo "FAIL: simulator fingerprint $fingerprint, $golden records $want_fp" >&2
  exit 1
fi
if [ "$got_md5" != "$want_md5" ]; then
  echo "FAIL: run-all md5 $got_md5, $golden records $want_md5" >&2
  exit 1
fi
echo "md5 $got_md5 matches $golden."

echo "== store smoke: cold vs warm run must be byte-identical =="
# Two fresh processes over one fresh store: the first simulates everything
# and writes the store; the second must render byte-identical stdout from
# disk alone (zero simulations).  Also proves the cached path reproduces
# the --no-cache output above exactly.
cachedir=$(mktemp -d)
cold=$(mktemp) && colderr=$(mktemp) && warm=$(mktemp) && warmerr=$(mktemp)
trap 'rm -f "$out1" "$out4" "$cold" "$colderr" "$warm" "$warmerr"; rm -rf "$cachedir"' EXIT
MMSTUDY_CACHE_DIR="$cachedir" $TO $MMSTUDY run all --scale 0.05 -j 4 > "$cold" 2> "$colderr"
# Informational: the cold run's peak resident set, from its summary line.
echo "cold run all $(grep -o 'peak rss: [0-9]* MB' "$colderr" || echo 'peak rss: not reported')"
rm -f "$colderr"
MMSTUDY_CACHE_DIR="$cachedir" $TO $MMSTUDY run all --scale 0.05 -j 4 > "$warm" 2> "$warmerr"
if ! diff -u "$cold" "$warm"; then
  echo "FAIL: warm (store-served) output differs from cold output" >&2
  exit 1
fi
if ! diff -u "$out4" "$warm"; then
  echo "FAIL: cached output differs from --no-cache output" >&2
  exit 1
fi
if ! grep -q 'simulations: 0,' "$warmerr"; then
  echo "FAIL: warm run re-simulated instead of reading the store:" >&2
  cat "$warmerr" >&2
  exit 1
fi
MMSTUDY_CACHE_DIR="$cachedir" $MMSTUDY cache stats
echo "cold = warm = uncached, 0 warm simulations."

echo "== ruby store golden: fig10-12 store entries must match the committed md5 =="
# The Ruby figures into one fresh store; the entries' names and bytes
# (not only stdout) are pinned, so a restart period computed from the
# no-restart run must store exactly what simulating it would.
rgolden=test/golden/store_ruby_scale0.01.md5
rubydir=$(mktemp -d)
trap 'rm -f "$out1" "$out4" "$cold" "$warm" "$warmerr"; rm -rf "$cachedir" "$rubydir"' EXIT
for exp in fig10 fig11 fig12; do
  MMSTUDY_CACHE_DIR="$rubydir" $TO $MMSTUDY run $exp --scale 0.01 -j 2 > /dev/null 2>&1
done
rmd5=$( (cd "$rubydir" && for f in $(ls | grep '\.meas$' | LC_ALL=C sort); do
  printf '%s\n' "$f"; cat "$f"; done) | md5sum | cut -d' ' -f1)
rm -rf "$rubydir"
if [ "$(sed -n 's/^fingerprint //p' "$rgolden")" != "$fingerprint" ]; then
  echo "FAIL: simulator fingerprint $fingerprint, $rgolden records another" >&2
  exit 1
fi
if [ "$rmd5" != "$(sed -n 's/^md5 //p' "$rgolden")" ]; then
  echo "FAIL: ruby store md5 $rmd5 differs from $rgolden" >&2
  exit 1
fi
echo "md5 $rmd5 matches $rgolden."

echo "== php store golden: fig5, fig7, tab4 into one store must match the committed md5 =="
# fig5 runs first, so fig7's and tab4's core-count groups find some of
# their members already on disk: the entries a group writes must be the
# ones separate simulations would, whatever part of the group is warm.
pgolden=test/golden/store_php_scale0.01.md5
phpdir=$(mktemp -d)
trap 'rm -f "$out1" "$out4" "$cold" "$warm" "$warmerr"; rm -rf "$cachedir" "$phpdir"' EXIT
for exp in fig5 fig7 tab4; do
  MMSTUDY_CACHE_DIR="$phpdir" $TO $MMSTUDY run $exp --scale 0.01 -j 2 > /dev/null 2>&1
done
pmd5=$( (cd "$phpdir" && for f in $(ls | grep '\.meas$' | LC_ALL=C sort); do
  printf '%s\n' "$f"; cat "$f"; done) | md5sum | cut -d' ' -f1)
rm -rf "$phpdir"
if [ "$(sed -n 's/^fingerprint //p' "$pgolden")" != "$fingerprint" ]; then
  echo "FAIL: simulator fingerprint $fingerprint, $pgolden records another" >&2
  exit 1
fi
if [ "$pmd5" != "$(sed -n 's/^md5 //p' "$pgolden")" ]; then
  echo "FAIL: php store md5 $pmd5 differs from $pgolden" >&2
  exit 1
fi
echo "md5 $pmd5 matches $pgolden."

echo "== serve smoke: deterministic across -j, memoized through the store =="
# A short serving sweep on a fresh store: deterministic at any job count,
# and a warm rerun must serve both the measurements and the derived
# sweeps from disk (zero simulations of either kind).
servedir=$(mktemp -d)
sj1=$(mktemp) && sj4=$(mktemp) && swarmerr=$(mktemp)
trap 'rm -f "$out1" "$out4" "$cold" "$warm" "$warmerr" "$sj1" "$sj4" "$swarmerr"; rm -rf "$cachedir" "$servedir"' EXIT
SERVE_ARGS="serve --workload mediawiki-ro --scale 0.05 --duration 2"
MMSTUDY_CACHE_DIR="$servedir" $TO $MMSTUDY $SERVE_ARGS -j 1 > "$sj1" 2>/dev/null
MMSTUDY_CACHE_DIR="$servedir" $TO $MMSTUDY $SERVE_ARGS -j 4 > "$sj4" 2> "$swarmerr"
if ! diff -u "$sj1" "$sj4"; then
  echo "FAIL: serve output differs between -j 1 and -j 4" >&2
  exit 1
fi
if ! grep -q 'simulations: 0,' "$swarmerr" || ! grep -q 'serve sims: 0,' "$swarmerr"; then
  echo "FAIL: warm serve run recomputed instead of reading the store:" >&2
  cat "$swarmerr" >&2
  exit 1
fi
if ! grep -q 'SATURATED' "$sj4"; then
  echo "FAIL: serve sweep never reached saturation (grid should cross capacity)" >&2
  exit 1
fi
echo "serve deterministic across -j; warm rerun 0 simulations, 0 serve sims."

echo "== serve policy golden: affinity, bursty, timeouts, retries, deadline-aware =="
# The smoke above runs without a policy; this run drives every branch of
# the event loop (sheds, timeouts, retries) and pins its stdout across
# commits, against the same fingerprint as the run-all golden.
sgolden=test/golden/serve_policy_scale0.05.md5
spdir=$(mktemp -d)
spout=$(MMSTUDY_CACHE_DIR="$spdir" $TO $MMSTUDY serve --workload mediawiki-ro \
  --scale 0.05 --duration 2 --dispatch affinity --arrival bursty \
  --timeout 0.5 --retries 2 --admission deadline-aware 2>/dev/null | md5sum | cut -d' ' -f1)
rm -rf "$spdir"
if [ "$(sed -n 's/^fingerprint //p' "$sgolden")" != "$fingerprint" ]; then
  echo "FAIL: simulator fingerprint $fingerprint, $sgolden records another" >&2
  exit 1
fi
if [ "$spout" != "$(sed -n 's/^md5 //p' "$sgolden")" ]; then
  echo "FAIL: serve policy md5 $spout differs from $sgolden" >&2
  exit 1
fi
echo "md5 $spout matches $sgolden."

echo "== fault smoke: injected faults must not change a single output byte =="
# The determinism-under-faults invariant: MM_FAULT_SEED arms store I/O
# errors and torn writes throughout the pipeline, yet the rendered
# experiment output must equal the fault-free -j 4 baseline exactly —
# faults may only move counters and logs.
faultdir=$(mktemp -d)
faultout=$(mktemp) && faulterr=$(mktemp)
trap 'rm -f "$out1" "$out4" "$cold" "$warm" "$warmerr" "$sj1" "$sj4" "$swarmerr" "$faultout" "$faulterr"; rm -rf "$cachedir" "$servedir" "$faultdir"' EXIT
MM_FAULT_SEED=42 MMSTUDY_CACHE_DIR="$faultdir" \
  $TO $MMSTUDY run all --scale 0.05 -j 4 > "$faultout" 2> "$faulterr"
if ! diff -u "$out4" "$faultout"; then
  echo "FAIL: output under MM_FAULT_SEED=42 differs from the fault-free run" >&2
  cat "$faulterr" >&2
  exit 1
fi
echo "byte-identical under MM_FAULT_SEED=42."

echo "== chaos drills: byte-identical and -j-independent under faults, store self-healing =="
$TO $MMSTUDY chaos --fault-seed 42

echo "== fault-hardened store suite under env injection =="
# The store test binary asserts values always and exact counters only
# when unarmed, so it must pass with the injector on.
MM_FAULT_SEED=42 $TO ./_build/default/test/test_store.exe > /dev/null 2>&1 \
  || { echo "FAIL: test_store under MM_FAULT_SEED=42" >&2; exit 1; }
echo "test_store passes with injection armed."

echo "== benchmark self-test: perfbench builds and every workload runs =="
# Nothing above builds perfbench/ (its own release build directory), so a
# lib API change that breaks perfbench/main.ml would otherwise show only
# as a failed benchmark run.  Every workload runs at a tiny size, untraced
# and traced, and must emit every declared metric and pass its checks.
$TO python3 perfbench/run.py --self-test

echo "== perf smoke: run fig1 and a serve sweep, -j 1, no cache (wall-clock) =="
# Not a pass/fail gate — timing on shared CI boxes is too noisy for that —
# but the numbers land in the log for eyeballing.  Measured before/after
# numbers come from perfbench/run.py.
# `time` is not available under dash; bracket each run with GNU date's
# nanosecond clock.
now_ms() { echo $(($(date +%s%N) / 1000000)); }
t0=$(now_ms)
$TO $MMSTUDY run fig1 --scale 0.05 --no-cache -j 1 > /dev/null
echo "perf smoke run fig1 wall-clock: $(($(now_ms) - t0)) ms"
t0=$(now_ms)
$TO $MMSTUDY serve --workload mediawiki-ro --scale 0.05 --duration 2 \
  --no-cache -j 1 > /dev/null 2>&1
echo "perf smoke serve wall-clock: $(($(now_ms) - t0)) ms"

echo "ALL CHECKS PASSED"
