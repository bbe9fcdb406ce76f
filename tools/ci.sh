#!/usr/bin/env bash
# Full verification pipeline:
#
#   1. tier-1: default build, whole test suite
#   2. perfbench self-test (perfbench/NOTES.md): every benchmark
#      workload's job shape at tiny size, untraced and traced; each job
#      must pass the three whole-system identities and the traced copy
#      of the step loop must match its untraced twin bit for bit
#   3. observability smoke: trace_stats selftest plus a short traced
#      run whose report must round-trip through the analyzer
#   4. trace round-trip smoke: record a workload to a .beartrace
#      file, dump it (full decode = integrity check), replay it, and
#      diff the live and replayed JSON reports byte for byte
#   5. sanitizers: rebuild and rerun the suite under ASan+UBSan
#      (any report is fatal: -fno-sanitize-recover=all)
#   6. chaos smoke (DESIGN.md §11, under the sanitizer build): a
#      fault-injected nine-design sweep must exit 3 with a partial
#      report and a journal of the completed cells; resuming against
#      that journal must finish cleanly with a JSON report
#      byte-identical to an unfaulted run's
#   7. ThreadSanitizer: rebuild with BEAR_SANITIZE=thread and drive
#      the worker pool hard (BEAR_WORKERS=4 fig12 sweep) plus the
#      chaos faulted->resume contract, so the lock discipline that
#      clang's static analysis proves on paper is also checked under
#      real interleavings
#   8. static analysis: tools/lint.sh (bearlint always; clang-tidy
#      skipped when absent)
#   9. strict thread-safety build: clang with -Wthread-safety
#      -Werror=thread-safety-analysis over the whole tree (skipped
#      with a notice when clang++ is absent)
#  10. microbenchmarks (DESIGN.md §14): Release build, run the
#      micro harness, refresh BENCH_micro.json at the repo root and
#      fail on malformed or empty output; then bench_gate compares the
#      fresh snapshot against the committed baseline and fails on a
#      >25% nsPerOp regression of any benchmark present in both
#
#   tools/ci.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="${1:-$(nproc)}"

echo "=== [1/10] tier-1 build + tests"
cmake -B build -S . >/dev/null
cmake --build build -j "${jobs}"
ctest --test-dir build --output-on-failure -j "${jobs}"

echo "=== [2/10] perfbench self-test (job shapes, identities, traced twin)"
python3 perfbench/run.py --selftest

echo "=== [3/10] observability smoke (trace_stats + traced run)"
build/tools/trace_stats --selftest
report="$(mktemp)"
workdir="$(mktemp -d)"
trap 'rm -f "${report}"; rm -rf "${workdir}"' EXIT
BEAR_JSON="${report}" BEAR_TRACE=1024 BEAR_WARMUP=10000 \
    BEAR_MEASURE=5000 build/examples/latency_profile mcf BEAR >/dev/null
build/tools/trace_stats "${report}" >/dev/null

echo "=== [4/10] trace round-trip smoke (record, dump, replay, diff)"
trace="${workdir}/mcf.beartrace"
BEAR_WARMUP=10000 BEAR_MEASURE=5000 \
    build/tools/trace_record mcf "${trace}" >/dev/null
build/tools/trace_dump "${trace}" --records 4 >/dev/null
BEAR_JSON="${workdir}/live.jsonl" BEAR_WARMUP=10000 BEAR_MEASURE=5000 \
    build/examples/latency_profile mcf BEAR >/dev/null
BEAR_JSON="${workdir}/replay.jsonl" BEAR_WARMUP=10000 \
    BEAR_MEASURE=5000 BEAR_TRACE_IN="${trace}" \
    build/examples/latency_profile mcf BEAR >/dev/null
# The replayed report must be byte-identical to the live one.
diff "${workdir}/live.jsonl" "${workdir}/replay.jsonl"

echo "=== [5/10] ASan+UBSan build + tests"
cmake -B build-san -S . -DBEAR_SANITIZE=address,undefined >/dev/null
cmake --build build-san -j "${jobs}"
ctest --test-dir build-san --output-on-failure -j "${jobs}"

echo "=== [6/10] chaos smoke (faulted sweep -> partial -> resume)"
chaos_env=(BEAR_WARMUP=10000 BEAR_MEASURE=5000)
journal="${workdir}/chaos.journal"

# Reference: unfaulted sweep, exit 0, clean report.
env "${chaos_env[@]}" BEAR_JSON="${workdir}/chaos-clean.jsonl" \
    build-san/tools/chaos_sweep >/dev/null

# Faulted sweep: ~30% of measurement phases throw.  The sweep must
# survive (partial report, exit 3) and journal every completed cell.
rc=0
env "${chaos_env[@]}" BEAR_FAULT='throw@job.measure:p=0.3' \
    BEAR_JOURNAL="${journal}" \
    BEAR_JSON="${workdir}/chaos-partial.jsonl" \
    build-san/tools/chaos_sweep >/dev/null 2>&1 || rc=$?
if [[ "${rc}" -ne 3 ]]; then
    echo "chaos: faulted sweep exited ${rc}, expected 3 (partial)" >&2
    exit 1
fi
grep -q '"failures"' "${workdir}/chaos-partial.jsonl" || {
    echo "chaos: partial report carries no failures array" >&2
    exit 1
}

# Resume: only failed/missing cells re-execute; the completed report
# must be byte-identical to the unfaulted run's.
env "${chaos_env[@]}" BEAR_JOURNAL="${journal}" \
    BEAR_JSON="${workdir}/chaos-final.jsonl" \
    build-san/tools/chaos_sweep >/dev/null
diff "${workdir}/chaos-clean.jsonl" "${workdir}/chaos-final.jsonl"

echo "=== [7/10] ThreadSanitizer (threaded sweep + chaos contract)"
cmake -B build-tsan -S . -DBEAR_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "${jobs}"
# Drive the worker pool with real contention: every design of the
# overall sweep across four workers.  Any data race aborts the run
# (-fno-sanitize-recover=all).
BEAR_WORKERS=4 BEAR_WARMUP=2000 BEAR_MEASURE=1000 \
    BEAR_JSON="${workdir}/tsan-fig12.jsonl" \
    build-tsan/bench/fig12_overall >/dev/null
# The chaos contract must hold under TSan too: faulted sweep exits 3,
# the resume against its journal completes cleanly.
rc=0
BEAR_WORKERS=4 BEAR_WARMUP=2000 BEAR_MEASURE=1000 \
    BEAR_FAULT='throw@job.measure:p=0.3' \
    BEAR_JOURNAL="${workdir}/tsan-chaos.journal" \
    BEAR_JSON="${workdir}/tsan-chaos-partial.jsonl" \
    build-tsan/tools/chaos_sweep >/dev/null 2>&1 || rc=$?
if [[ "${rc}" -ne 3 ]]; then
    echo "tsan chaos: faulted sweep exited ${rc}, expected 3" >&2
    exit 1
fi
BEAR_WORKERS=4 BEAR_WARMUP=2000 BEAR_MEASURE=1000 \
    BEAR_JOURNAL="${workdir}/tsan-chaos.journal" \
    BEAR_JSON="${workdir}/tsan-chaos-final.jsonl" \
    build-tsan/tools/chaos_sweep >/dev/null

echo "=== [8/10] static analysis (bearlint + clang-tidy)"
tools/lint.sh build

echo "=== [9/10] strict thread-safety build (clang)"
if command -v clang++ >/dev/null 2>&1; then
    cmake -B build-strict -S . -DCMAKE_CXX_COMPILER=clang++ \
        -DBEAR_STRICT_WARNINGS=ON >/dev/null
    cmake --build build-strict -j "${jobs}"
else
    echo "clang++ not found; skipping the -Werror=thread-safety" \
         "-analysis build" >&2
fi

echo "=== [10/10] microbenchmark snapshot (Release micro + gate)"
cmake -B build-rel -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-rel -j "${jobs}"
# Stash the committed micro snapshot before the bench run overwrites
# it: it is the baseline the regression gate compares against.
if [[ -s BENCH_micro.json ]]; then
    cp BENCH_micro.json "${workdir}/micro-baseline.json"
fi
# The harness self-validates (re-parses its own JSON before exit 0);
# the checks below additionally pin the schema tag and non-emptiness
# so a truncated file can never be mistaken for a snapshot.
build-rel/bench/micro_structures --benchmark_min_time=0.2 \
    > "${workdir}/micro.log"
[[ -s BENCH_micro.json ]] || {
    echo "bench: BENCH_micro.json missing or empty" >&2
    exit 1
}
grep -q '"schema":"bear-bench-micro-v1"' BENCH_micro.json || {
    echo "bench: BENCH_micro.json lacks its schema tag" >&2
    exit 1
}
grep -q 'BM_TagStoreProbe' BENCH_micro.json || {
    echo "bench: BENCH_micro.json is missing the TagStore benches" >&2
    exit 1
}
# Perf-regression gate: any benchmark present in both the committed
# baseline and the fresh run may not be more than 25% slower.  A
# first-ever run (no committed snapshot) skips with a notice.
build-rel/tools/bench_gate --selftest
if [[ -s "${workdir}/micro-baseline.json" ]]; then
    build-rel/tools/bench_gate "${workdir}/micro-baseline.json" \
        BENCH_micro.json --threshold 25
else
    echo "bench: no committed BENCH_micro.json baseline; gate skipped"
fi

echo "=== CI OK"
