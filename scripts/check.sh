#!/bin/sh
# Tier-1 check: configure, build, and run the full test suite, then a
# sanitized configuration and one traced end-to-end verification.
# (See ROADMAP.md; CI and pre-merge both run exactly this script.)
set -e
cd "$(dirname "$0")/.."

# 1. Tier-1: RelWithDebInfo build + full ctest suite.
cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build -j
(cd build && ctest --output-on-failure -j)

# 2. Traced end-to-end verification: the observability acceptance path.
#    Must produce a loadable Chrome trace and a profile report.
./build/examples/verify_tool --trace=build/demo_trace.json --profile \
    examples/demo.c
test -s build/demo_trace.json

# 3. Persistent-cache round trip: a cold run populates the cache directory,
#    a second process must be served entirely from it (zero re-verified
#    functions; a fresh process starts with an empty L1, so every hit is an
#    L2 hit replayed through the proof checker), and a third, also served
#    from it, must print the cold run's stable JSON byte for byte: the store
#    tier changes no verdict and no statistic.
rm -rf build/check_cache
./build/examples/verify_tool --cache-dir=build/check_cache \
    --format=stable-json examples/demo.c > build/check_cache_cold.json
out=$(./build/examples/verify_tool --cache-dir=build/check_cache \
    --format=json examples/demo.c)
echo "$out" | grep -q '"cache_misses": 0'
echo "$out" | grep -q '"replay_failures": 0'
echo "$out" | grep -q '"all_verified": true'
if echo "$out" | grep -q '"cache_hits": 0'; then
  echo "check.sh: warm cache run reported zero hits"; exit 1
fi
echo "$out" | python3 -c '
import json, sys
r = json.load(sys.stdin)
if not (r["l1_hits"] == 0 and
        r["l2_hits"] == r["replayed_hits"] == r["cache_hits"]):
    sys.exit("check.sh: warm cache run: want l1_hits 0 and l2_hits = "
             "replayed_hits = cache_hits, got %d, %d, %d, %d" % (
                 r["l1_hits"], r["l2_hits"], r["replayed_hits"],
                 r["cache_hits"]))
'
./build/examples/verify_tool --cache-dir=build/check_cache \
    --format=stable-json examples/demo.c > build/check_cache_warm.json
cmp build/check_cache_cold.json build/check_cache_warm.json || {
  echo "check.sh: warm cache run's stable-json differs from the cold run's"
  exit 1; }

# 4. Portfolio gates (DESIGN.md, "Solver portfolio"): --portfolio=on must
#    produce byte-identical deterministic traces across --jobs=1 / --jobs=4,
#    across repeated runs, and vs --portfolio=off on proved-by-default
#    goals (demo.c) — the fixed-priority attribution guarantee. The bitmap
#    ablation (bit-vector backend clears the manual count) is gated in
#    ctest by Figure7.BitvectorBackendReplacesBitmapLemmas.
rm -rf build/check_portfolio && mkdir -p build/check_portfolio
./build/examples/verify_tool --deterministic-trace --portfolio=on --jobs=4 \
    --trace=build/check_portfolio/on_j4.json examples/demo.c > /dev/null
./build/examples/verify_tool --deterministic-trace --portfolio=on --jobs=1 \
    --trace=build/check_portfolio/on_j1.json examples/demo.c > /dev/null
./build/examples/verify_tool --deterministic-trace --portfolio=on --jobs=4 \
    --trace=build/check_portfolio/on_j4_rep.json examples/demo.c > /dev/null
./build/examples/verify_tool --deterministic-trace --portfolio=off --jobs=1 \
    --trace=build/check_portfolio/off.json examples/demo.c > /dev/null
cmp build/check_portfolio/on_j4.json build/check_portfolio/on_j1.json || {
  echo "check.sh: on trace differs between --jobs=4 and --jobs=1"; exit 1; }
cmp build/check_portfolio/on_j4.json build/check_portfolio/on_j4_rep.json || {
  echo "check.sh: on trace differs across repeated runs"; exit 1; }
cmp build/check_portfolio/on_j4.json build/check_portfolio/off.json || {
  echo "check.sh: on trace differs from off on proved-by-default goals"; exit 1; }

# 5. Daemon smoke: start verifyd --stdio on a copy of the demo, wait for
#    the cold-start revision, edit one function in place, force a check,
#    and assert exactly that one function was re-verified (the daemon's
#    warm-L1 acceptance path), then shut down cleanly. The daemon speaks
#    protocol v2 only: the session opens with `hello` and sends `req`
#    lines. Then the socket round trip: `verify_tool --connect` must exit 1
#    on a two-file workspace with one failing file and 0 on the demo alone.
rm -rf build/check_daemon && mkdir -p build/check_daemon
cp examples/demo.c build/check_daemon/watched.c
fifo=build/check_daemon/in; mkfifo "$fifo"
dout=build/check_daemon/out
./build/examples/verifyd --stdio build/check_daemon/watched.c \
    < "$fifo" > "$dout" &
dpid=$!
exec 9> "$fifo"
echo '{"rcc": "hello", "protocol_version": 2, "role": "client"}' >&9
for _ in $(seq 1 100); do
  grep -q '"event": "revision_done", "rev": 1' "$dout" 2>/dev/null && break
  sleep 0.1
done
grep -q '"event": "revision_done", "rev": 1' "$dout"
grep -q '"all_verified": true' "$dout"
grep -q '"rcc": "hello_ack"' "$dout"
# Same-length in-place edit of max_sz only (later lines keep their
# locations, so only one function's content hash changes).
sed -i 's/a < b ? b : a/b < a ? a : b/' build/check_daemon/watched.c
echo '{"rcc": "req", "id": 1, "method": "check"}' >&9
for _ in $(seq 1 100); do
  grep -q '"event": "revision_done", "rev": 2' "$dout" 2>/dev/null && break
  sleep 0.1
done
grep '"event": "revision_done", "rev": 2' "$dout" | grep -q '"reverified": 1'
echo '{"rcc": "req", "id": 2, "method": "shutdown"}' >&9
exec 9>&-
wait $dpid
grep -q '"id": 2, "event": "shutdown"' "$dout"
scripts/connect_smoke.sh ./build/examples/verifyd ./build/examples/verify_tool

# 6. LSP smoke: a scripted editor session against a real rcc-lsp process
#    over stdio Content-Length framing (initialize -> didOpen with a
#    failing function -> located publishDiagnostics -> fixed didSave ->
#    empty clear -> shutdown/exit, plus exit-before-shutdown exiting 1).
scripts/lsp_smoke.sh ./build/examples/rcc-lsp

# 7. Repository benchmark self-checks: one short traced run of each
#    workload. mono_cold's 5,000-function unit runs the pooled front end;
#    mono_edit's fresh session on a populated store keys every function in
#    its job and serves almost all of them through the disk tier's read
#    path. perfbench checks every verdict against the generator's answers,
#    that derivations replay, and that its deterministic counts
#    (frontend.tokens, the engine counts, store.hits and store.lookups
#    among them) repeat across rounds and between 1 and 4 jobs; any failed
#    check shows up as "correct": false or a non-zero error_rate on the
#    result line (the last line of its output).
for w in fig7 mono_cold mono_edit; do
  python3 perfbench/run.py --workload $w --seed 1 --seconds 2 --trace 1 \
      > build/check_bench_$w.out
  tail -n 1 build/check_bench_$w.out | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
rate = r["metrics"]["error_rate"]["value"]
if r["correct"] is not True or rate != 0:
    sys.exit("check.sh: perfbench %s self-checks failed: correct=%s "
             "error_rate=%s" % (sys.argv[1], r["correct"], rate))
' $w
done

# 8. ASan/UBSan configuration (trace subsystem, parallel driver, the
#    result store's deserializer, the daemon, and the LSP framing layer are
#    the main customers: data races on buffers, lifetime of cached
#    pointers, attacker-controlled cache and frame bytes, revision/session
#    lifetimes). The store, daemon, and LSP tests (test_store, test_daemon,
#    test_lsp) run as part of the sanitized suite below. GCC's
#    -fsanitize=undefined leaves out float-cast-overflow, which guards the
#    double-to-integer conversions of untrusted JSON numbers, so it is
#    named on its own. -D_GLIBCXX_ASSERTIONS bounds-checks container and
#    span indexing: derivation steps are flat records that refer to rules
#    by label id and to hypotheses through interned lists, and an index
#    that stays inside a live allocation is invisible to ASan.
#    Skippable for quick local runs: CHECK_SKIP_SANITIZERS=1 scripts/check.sh
if [ -z "$CHECK_SKIP_SANITIZERS" ]; then
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined,float-cast-overflow -fno-sanitize-recover=all -D_GLIBCXX_ASSERTIONS"
  cmake --build build-asan -j
  (cd build-asan && ctest --output-on-failure -j)
  ./build-asan/examples/verify_tool --trace=build-asan/demo_trace.json \
      --profile examples/demo.c > /dev/null
  # The sanitized LSP smoke drives the whole daemon/LSP stack end to end.
  scripts/lsp_smoke.sh ./build-asan/examples/rcc-lsp

  # 9. TSan configuration for the code that runs threads: the parallel
  #    driver and the process-wide rule library every session reads
  #    (test_parallel), the front end's pooled phases, which test_parallel's
  #    LargeUnit cases drive at 300 functions (phase 1: each definition's
  #    task parses its annotations and body from the shared tokens and
  #    typedef table, lowers it and frees its AST; phase 2: function specs
  #    against the shared environment), the thread pool (test_support) and
  #    the store
  #    tiers that concurrent jobs probe and publish to (test_store, which
  #    also loads entries naming rules the process has not seen on two
  #    threads at once, so both intern into the label table), plus
  #    the terms and solvers every job runs (test_pure_term and
  #    test_pure_solver, whose concurrent substitution and solver tests
  #    run several threads, test_bitvector, test_linear_overflow), and the
  #    daemon (test_daemon), which opens a session per revision while its
  #    socket tests serve clients from another thread. test_parallel also
  #    runs two pooled sessions at once, so their pool threads lease the
  #    two sessions' arenas and run both sessions' jobs concurrently. TSan
  #    also reports any pool thread still running at exit.
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all"
  cmake --build build-tsan -j --target test_parallel test_support \
      test_store test_pure_term test_pure_solver test_bitvector \
      test_linear_overflow test_daemon
  ./build-tsan/tests/test_parallel
  ./build-tsan/tests/test_support
  ./build-tsan/tests/test_store
  ./build-tsan/tests/test_pure_term
  ./build-tsan/tests/test_pure_solver
  ./build-tsan/tests/test_bitvector
  ./build-tsan/tests/test_linear_overflow
  ./build-tsan/tests/test_daemon
fi

echo "check.sh: all green"
