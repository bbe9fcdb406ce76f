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
#   6. disk-full smoke (DESIGN.md §11, under the sanitizer build): a
#      fig12 sweep recording to /dev/full must exit 3 with a partial
#      report naming the trace-io cell and a journal of the completed
#      cells; resuming against that journal must finish cleanly with a
#      JSON report and stdout byte-identical to a clean run's
#   7. ThreadSanitizer: rebuild with BEAR_SANITIZE=thread and drive
#      the worker pool hard (BEAR_WORKERS=4 fig12 sweep) plus the
#      disk-full partial->resume contract, so the lock discipline that
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

echo "=== [6/10] disk-full smoke (failed sweep -> partial -> resume)"
# sweep_contract BIN TAG ENV...: BIN run with ENV must match a clean
# run after a /dev/full recording fails it and a resume completes it.
sweep_contract() {
    local bin="$1" tag="$2"
    shift 2
    local out="${workdir}/${tag}"
    if ! [[ -w /dev/full ]]; then
        echo "/dev/full is not writable; skipping the ${tag}" \
             "disk-full contract" >&2
        return 0
    fi
    # Reference: clean sweep, exit 0, clean report.
    env "$@" BEAR_JSON="${out}-clean.jsonl" "${bin}" \
        > "${out}-clean.stdout"
    # The first executed cell records to a full disk and fails with
    # trace-io; the sweep survives (partial report, exit 3) and
    # journals every completed cell.
    local rc=0
    env "$@" BEAR_TRACE_OUT=/dev/full BEAR_JOURNAL="${out}.journal" \
        BEAR_JSON="${out}-partial.jsonl" "${bin}" \
        >/dev/null 2>&1 || rc=$?
    if [[ "${rc}" -ne 3 ]]; then
        echo "${tag}: disk-full sweep exited ${rc}, expected 3" >&2
        exit 1
    fi
    grep -q '"failures"' "${out}-partial.jsonl" \
        && grep -q '"trace-io"' "${out}-partial.jsonl" || {
        echo "${tag}: partial report names no trace-io failure" >&2
        exit 1
    }
    # Resume: only the failed cell re-executes; the completed report
    # and table must be byte-identical to the clean run's.
    env "$@" BEAR_JOURNAL="${out}.journal" \
        BEAR_JSON="${out}-final.jsonl" "${bin}" > "${out}-final.stdout"
    diff "${out}-clean.jsonl" "${out}-final.jsonl"
    diff "${out}-clean.stdout" "${out}-final.stdout"
}
sweep_contract build-san/bench/fig12_overall san \
    BEAR_WARMUP=10000 BEAR_MEASURE=5000

echo "=== [7/10] ThreadSanitizer (threaded sweep + disk-full contract)"
cmake -B build-tsan -S . -DBEAR_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "${jobs}"
# Drive the worker pool with real contention: every design of the
# overall sweep across four workers, failing and resuming.  Any data
# race aborts the run (-fno-sanitize-recover=all).  At 3k references
# per core no chunk fills, so the disk-full failure surfaces at the
# recording's finish().
sweep_contract build-tsan/bench/fig12_overall tsan \
    BEAR_WORKERS=4 BEAR_WARMUP=2000 BEAR_MEASURE=1000

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
