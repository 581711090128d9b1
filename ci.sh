#!/usr/bin/env bash
# Local CI: everything the tree must pass before a merge.
#
#   ./ci.sh            (or: make ci)
#
# Steps: type-check, full build, test suite, then a telemetry smoke
# run of the hloc driver on the example modules — asserting that a
# Chrome trace is actually emitted and the summary prints.
set -euo pipefail
cd "$(dirname "$0")"

echo "== dune build @check =="
dune build @check

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== isom separate compilation smoke (hloc -c / --link) =="
# Whole-program reference, then per-module isoms, then a link of the
# isoms: IR, stats and run output must be byte-identical.
dune exec bin/hloc.exe -- \
  examples/telemetry_util.mc examples/telemetry_main.mc \
  --dump-ir --stats --run interp > "$tmp/whole.txt"
dune exec bin/hloc.exe -- -c examples/telemetry_util.mc \
  -o "$tmp/telemetry_util.isom"
dune exec bin/hloc.exe -- -c examples/telemetry_main.mc \
  "$tmp/telemetry_util.isom" -o "$tmp/telemetry_main.isom"
dune exec bin/hloc.exe -- --link \
  "$tmp/telemetry_util.isom" "$tmp/telemetry_main.isom" \
  --dump-ir --stats --run interp > "$tmp/linked.txt"
diff -u "$tmp/whole.txt" "$tmp/linked.txt"
echo "separate compile + link identical to whole-program"

echo "== isom incremental smoke (hloc --incremental) =="
dune exec bin/hloc.exe -- --incremental \
  examples/telemetry_util.mc examples/telemetry_main.mc \
  --isom-dir "$tmp/isom" --dump-ir --stats --run interp > "$tmp/inc-cold.txt"
grep -q '\[isom\] reused=0 recompiled=2' "$tmp/inc-cold.txt"
dune exec bin/hloc.exe -- --incremental \
  examples/telemetry_util.mc examples/telemetry_main.mc \
  --isom-dir "$tmp/isom" --dump-ir --stats --run interp > "$tmp/inc-warm.txt"
grep -q '\[isom\] reused=2 recompiled=0' "$tmp/inc-warm.txt"
diff -u <(grep -v '^\[isom\]' "$tmp/inc-cold.txt") \
        <(grep -v '^\[isom\]' "$tmp/inc-warm.txt")
diff -u <(grep -v '^\[isom\]' "$tmp/inc-warm.txt") "$tmp/whole.txt"
echo "incremental warm rebuild reused everything, output identical"

echo "== corrupt isom smoke (graceful recompile) =="
truncate -s 40 "$tmp/isom/telemetry_main.isom"
dune exec bin/hloc.exe -- --incremental \
  examples/telemetry_util.mc examples/telemetry_main.mc \
  --isom-dir "$tmp/isom" --dump-ir --stats --run interp > "$tmp/inc-corrupt.txt"
grep -q '\[isom\] reused=1 recompiled=1' "$tmp/inc-corrupt.txt"
grep -q 'recompiled telemetry_main: unreadable' "$tmp/inc-corrupt.txt"
diff -u <(grep -v '^\[isom\]' "$tmp/inc-corrupt.txt") "$tmp/whole.txt"
echo "truncated isom recompiled transparently, output identical"

echo "== policy smoke (hloc --policy round trip, make tune-smoke) =="
# The dumped default policy fed back through --policy must change
# nothing; then the tiny fixed-seed tuner run (at jobs 1 and jobs 2,
# bit-identical JSON) and a load of its winning policy into hloc.
dune exec bin/hloc.exe -- --dump-policy > "$tmp/default.policy"
dune exec bin/hloc.exe -- \
  examples/telemetry_util.mc examples/telemetry_main.mc \
  --dump-ir --stats --run interp --policy "$tmp/default.policy" \
  > "$tmp/policy-run.txt"
diff -u "$tmp/whole.txt" "$tmp/policy-run.txt"
make tune-smoke
dune exec bin/hloc.exe -- \
  --policy _build/tune_policies/specint92.policy --dump-policy > /dev/null
echo "policy round trip identical; tuner deterministic"
# A forged header whose payload length exceeds the file: the load must
# be refused with a diagnostic and a nonzero exit, not die allocating.
printf 'hlo-policy 1 %s 4611686018427387000\n' \
  "$(printf '%032d' 0)" > "$tmp/forged.policy"
status=0
dune exec bin/hloc.exe -- \
  examples/telemetry_util.mc examples/telemetry_main.mc \
  --policy "$tmp/forged.policy" > /dev/null 2> "$tmp/forged.err" || status=$?
test "$status" -ne 0
grep -q 'truncated payload' "$tmp/forged.err"
if grep -qi 'exception' "$tmp/forged.err"; then
  cat "$tmp/forged.err"; exit 1
fi
echo "oversized policy header refused with a diagnostic"

echo "== inline mode smoke (hloc --inline-mode) =="
# Whole spelled explicitly must be byte-identical to the default; the
# three modes must agree on the program's run output even at a budget
# starved enough to force region/demand splitting.
dune exec bin/hloc.exe -- \
  examples/telemetry_util.mc examples/telemetry_main.mc \
  --dump-ir --stats --run interp --inline-mode whole > "$tmp/mode-whole.txt"
diff -u "$tmp/whole.txt" "$tmp/mode-whole.txt"
for mode in whole region demand; do
  dune exec bin/hloc.exe -- \
    examples/telemetry_util.mc examples/telemetry_main.mc \
    --run interp --inline-mode "$mode" --budget 5 > "$tmp/mode-run-$mode.txt"
done
diff -u "$tmp/mode-run-whole.txt" "$tmp/mode-run-region.txt"
diff -u "$tmp/mode-run-whole.txt" "$tmp/mode-run-demand.txt"
echo "whole mode inert; all three modes agree on run output"

echo "== inline modes at ref input (hlo-experiments modes, BENCH_pr10.json) =="
# The committed three-mode comparison must reproduce byte for byte.
dune exec bin/run_experiments.exe -- modes --input ref \
  --json "$tmp/modes.json" > /dev/null
cmp "$tmp/modes.json" BENCH_pr10.json
echo "modes --input ref reproduces BENCH_pr10.json"

echo "== differential fuzz smoke (hlo_fuzz, fixed seed) =="
# Corpus + random programs through the semantic oracle for ~30s.
# A nonzero exit means a real finding; the bucketed, reduced repros
# are left under _build/fuzz for inspection.
rm -rf _build/fuzz
dune exec bin/hlo_fuzz.exe -- --seed 1 --iters 400 --time-budget 30 \
  --out _build/fuzz

echo "== chaos validation (hlo_fuzz --chaos must catch each seeded bug) =="
# Arm each deliberate miscompilation in turn: the smoke budget must
# catch it (nonzero exit) and the reducer must shrink the repro.  The
# region-splitting bug only fires on the outline-then-inline path, so
# its campaign is pinned to region mode.
for bug in inline_swap_args inline_lost_retval clone_const_drift \
           prune_address_taken region_lost_cold_path; do
  extra=""
  [ "$bug" = region_lost_cold_path ] && extra="--inline-mode region"
  if dune exec bin/hlo_fuzz.exe -- --seed 1 --iters 120 --time-budget 60 \
       --chaos "$bug" $extra --out "$tmp/chaos-$bug" \
       > "$tmp/chaos-$bug.log" 2>&1; then
    echo "chaos bug $bug was NOT caught"
    cat "$tmp/chaos-$bug.log"
    exit 1
  fi
  grep -q 'reduced to' "$tmp/chaos-$bug.log"
  ls "$tmp/chaos-$bug"/*/reduced/repro.mc > /dev/null
  echo "caught and reduced: $bug"
done

echo "== telemetry smoke run (hloc --trace) =="
dune exec bin/hloc.exe -- \
  examples/telemetry_util.mc examples/telemetry_main.mc \
  --trace "$tmp/trace.json" --trace-format chrome --telemetry-summary \
  --run interp > "$tmp/out.txt"
grep -q '"traceEvents"' "$tmp/trace.json"
grep -q 'telemetry summary' "$tmp/out.txt"
dune exec bin/hloc.exe -- \
  examples/telemetry_util.mc examples/telemetry_main.mc \
  --trace "$tmp/trace.jsonl" --trace-format jsonl --run none > /dev/null
grep -q '"type":"decision"' "$tmp/trace.jsonl"
echo "trace ok: $(wc -c < "$tmp/trace.json") bytes (chrome), $(wc -l < "$tmp/trace.jsonl") events (jsonl)"

echo "== daemon smoke (hlod / hlo_client / hloc --daemon) =="
# A fresh daemon serves the same compile twice: the first request is a
# miss, the second an artifact-store hit that never reaches admission,
# both byte-identical to in-process hloc.  Then hloc itself routes via
# --daemon require, and a graceful shutdown drains and removes the
# socket.  The daemon section runs the built binaries directly: a
# backgrounded `dune exec` would keep the build lock alive in the
# daemon and deadlock every later dune invocation.
dune build bin/hloc.exe bin/hlod.exe bin/hlo_client.exe
hloc=_build/default/bin/hloc.exe
hlod=_build/default/bin/hlod.exe
hlo_client=_build/default/bin/hlo_client.exe
sock="$tmp/hlod.sock"
"$hloc" examples/telemetry_util.mc examples/telemetry_main.mc \
  --dump-ir --stats --dump-journal --run interp > "$tmp/serve-ref.txt"
"$hlod" --socket "$sock" --artifact-dir "$tmp/artifacts" \
  --verbose 2> "$tmp/hlod.log" &
hlod_pid=$!
for _ in $(seq 1 100); do
  if "$hlo_client" ping --socket "$sock" > /dev/null 2>&1; then break; fi
  sleep 0.1
done
"$hlo_client" compile \
  examples/telemetry_util.mc examples/telemetry_main.mc \
  --dump-ir --stats --dump-journal --run interp --verbose \
  --socket "$sock" > "$tmp/serve-1.txt" 2> "$tmp/serve-1.err"
grep -q 'cache=miss' "$tmp/serve-1.err"
"$hlo_client" compile \
  examples/telemetry_util.mc examples/telemetry_main.mc \
  --dump-ir --stats --dump-journal --run interp --verbose \
  --socket "$sock" > "$tmp/serve-2.txt" 2> "$tmp/serve-2.err"
grep -q 'cache=hit' "$tmp/serve-2.err"
diff -u "$tmp/serve-ref.txt" "$tmp/serve-1.txt"
diff -u "$tmp/serve-ref.txt" "$tmp/serve-2.txt"
"$hlo_client" stats --socket "$sock" > "$tmp/serve-stats.json"
grep -q '"insertions":1' "$tmp/serve-stats.json"   # compiled exactly once
grep -q '"memory_hits":1' "$tmp/serve-stats.json"
"$hloc" examples/telemetry_util.mc examples/telemetry_main.mc \
  --dump-ir --stats --dump-journal --run interp \
  --daemon require --daemon-socket "$sock" > "$tmp/serve-hloc.txt"
diff -u "$tmp/serve-ref.txt" "$tmp/serve-hloc.txt"
# A region-mode compile with a non-default coldness cut travels as
# policy text: served by hlo_client and by hloc --daemon require, both
# byte-identical to in-process hloc, and compiled once between them.
region=(--inline-mode region --region-cold-fraction 0.3)
"$hloc" examples/telemetry_util.mc examples/telemetry_main.mc \
  --dump-ir --stats --dump-journal --run interp "${region[@]}" \
  > "$tmp/region-ref.txt"
"$hlo_client" compile \
  examples/telemetry_util.mc examples/telemetry_main.mc \
  --dump-ir --stats --dump-journal --run interp "${region[@]}" \
  --socket "$sock" > "$tmp/region-client.txt"
"$hloc" examples/telemetry_util.mc examples/telemetry_main.mc \
  --dump-ir --stats --dump-journal --run interp "${region[@]}" \
  --daemon require --daemon-socket "$sock" > "$tmp/region-hloc.txt"
diff -u "$tmp/region-ref.txt" "$tmp/region-client.txt"
diff -u "$tmp/region-ref.txt" "$tmp/region-hloc.txt"
"$hlo_client" stats --socket "$sock" > "$tmp/region-stats.json"
grep -q '"insertions":2' "$tmp/region-stats.json"  # one more compile
"$hlo_client" shutdown --socket "$sock"
wait "$hlod_pid"
grep -q 'shut down' "$tmp/hlod.log"
test ! -e "$sock"
echo "daemon served the default and region configs (one compile each), output identical, clean shutdown"

echo "== serve load smoke (make bench-serve, --smoke) =="
# Concurrent clients over a real socket; the binary exits nonzero if
# any non-saturation scenario failed or rejected a request.
dune exec bench/bench_serve.exe -- --smoke "$tmp/bench_serve.json"
grep -q '"pr7-serve-load"' "$tmp/bench_serve.json"

echo "CI OK"
