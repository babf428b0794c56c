#!/usr/bin/env bash
# Full gate: tier-1, one sanitizer pass, the benchmark selftest, and
# static analysis.
#
#   1. Plain Release build, full ctest suite        (build-check/)
#   2. Sanitizer build, full ctest suite            (build-san-*/)
#      AERO_CHECK_SANITIZE picks the sanitizer list; the default
#      address,undefined catches memory bugs in the fuzz/validation
#      paths and is followed by a TSan pass over the concurrent
#      obs/serve suites (TSan cannot be combined with ASan, hence two
#      builds). Set AERO_CHECK_SANITIZE=thread to race-check the full
#      concurrency-heavy suite list instead.
#   3. python3 perfbench/selftest.py                (.bench_build/)
#      Short untraced + traced run of every BENCHMARK.json workload,
#      checking the result line and the AERO_* refusal.
#   4. scripts/analyze.sh                           (build-analyze/)
#      Strict -Werror build, clang-tidy when available, aero_lint.
#      The analyze build dir is cached across runs, so repeat
#      invocations only pay for incremental compilation.
#
# Usage: scripts/check.sh [extra ctest args...]
#   Set AERO_CHECK_ANALYZE=0 to skip stage 4 (e.g. in a sanitizer-only
#   sweep where another job runs the analysis).

set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZE="${AERO_CHECK_SANITIZE:-address,undefined}"
JOBS="${AERO_CHECK_JOBS:-$(nproc)}"

echo "== tier-1: plain build + full test suite =="
cmake -B build-check -S . >/dev/null
cmake --build build-check -j "${JOBS}"
(cd build-check && ctest --output-on-failure -j "${JOBS}" "$@")

echo "== sanitizer pass: AERO_SANITIZE=${SANITIZE} =="
SAN_DIR="build-san-${SANITIZE//,/-}"
cmake -B "${SAN_DIR}" -S . -DAERO_SANITIZE="${SANITIZE}" >/dev/null
cmake --build "${SAN_DIR}" -j "${JOBS}"
if [ "${SANITIZE}" = "thread" ]; then
    # TSan run targets the concurrency-heavy suites; the single-threaded
    # suites add nothing under TSan but cost a full instrumented run.
    # test_parallel/test_diffusion exercise the intra-op thread pool
    # (DESIGN.md §11) from kernels up through full DDIM sampling;
    # test_obs races metric writers, span recording and live dumps
    # against the fault-injected service (DESIGN.md §12);
    # test_overload races the admission controller, priority queues and
    # the overload_spike chaos soak (DESIGN.md §14);
    # test_sync races the runtime lock-order validator and pins its
    # consistent-order path TSan-clean (DESIGN.md §15);
    # test_batch races worker threads against the continuous step
    # batcher's driver thread, including a shutdown-drain stress
    # (DESIGN.md §16);
    # test_mem races the arena's bucket free lists / trim path from
    # multiple threads and the condition cache through the threaded
    # serve stack (DESIGN.md §17).
    (cd "${SAN_DIR}" && ctest --output-on-failure -j "${JOBS}" \
        -R 'test_serve|test_batch|test_overload|test_util|test_parallel|test_diffusion|test_obs|test_sync|test_mem' \
        "$@")
else
    (cd "${SAN_DIR}" && ctest --output-on-failure -j "${JOBS}" "$@")
    # The observability fast paths are lock-free atomics: memory
    # sanitizers cannot see ordering bugs there, so always race-check
    # the obs + serve suites under TSan as well.
    echo "== sanitizer pass: AERO_SANITIZE=thread (obs/serve) =="
    cmake -B build-san-thread -S . -DAERO_SANITIZE=thread >/dev/null
    cmake --build build-san-thread -j "${JOBS}"
    (cd build-san-thread && ctest --output-on-failure -j "${JOBS}" \
        -R 'test_obs|test_serve|test_batch|test_overload|test_sync|test_mem' "$@")
fi

# Opt-in bench gates (AERO_CHECK_BENCH=1): self-gating benches whose
# exit code enforces a floor. bench_continuous_batch asserts bitwise
# identity between the batched and sequential serve paths at every
# stream count, and >= 1.5x throughput at 16 streams on >= 4-core
# hosts. bench_mem asserts bitwise identity for the arena and
# condition-cache on/off paths, <= 5% arena overhead with a cold cache
# (skipped with a report when host noise exceeds the gate), > 0.85
# steady-state hit rate on the 90%-repeat prompt mix, and >= 1.3x mix
# throughput when the condition stage is a big enough share of a
# request for that to be reachable.
if [ "${AERO_CHECK_BENCH:-0}" != "0" ]; then
    echo "== bench gates =="
    ./build-check/bench/bench_continuous_batch
    ./build-check/bench/bench_mem
fi

echo "== benchmark selftest =="
# perfbench refuses to run with any AERO_* variable set (the workloads
# pin their own settings), so the selftest runs with all of them unset,
# including this script's own AERO_CHECK_* knobs.
(
    for var in $(compgen -e); do
        case "${var}" in AERO_*) unset "${var}" ;; esac
    done
    python3 perfbench/selftest.py
)

if [ "${AERO_CHECK_ANALYZE:-1}" != "0" ]; then
    echo "== static analysis =="
    scripts/analyze.sh
fi

echo "== all checks passed =="
