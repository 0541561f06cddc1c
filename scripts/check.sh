#!/usr/bin/env bash
# Full correctness gate: static lint, the determinism analyzer, Werror
# build + tests, the same suite under
# AddressSanitizer + UBSan, the parallel sim engine under ThreadSanitizer,
# then the perf pipeline against its committed baseline.
# Exits non-zero on the first failure.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

jobs="$(nproc 2>/dev/null || echo 4)"

echo "== physics_lint =="
python3 scripts/physics_lint.py "${repo_root}"

echo "== check-analyze (determinism analyzer) =="
# AST-grounded A1-A5 checks over the source tree (no build needed), plus the
# seeded-violation fixture suite for the analyzer itself.
python3 scripts/milback_analyze.py "${repo_root}"
python3 tests/analyze/run_fixture_checks.py

echo "== dev build (Werror) + tests =="
cmake --preset dev
cmake --build --preset dev -j "${jobs}"
ctest --preset dev

echo "== asan-ubsan build + tests =="
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "${jobs}"
ctest --preset asan-ubsan

echo "== tsan build + sim engine tests =="
# TSan only pays off on the multi-threaded paths: the sim engine suites and
# the thread-invariance integration tests that drive TrialRunner at >1 worker.
cmake --preset tsan
cmake --build --preset tsan -j "${jobs}"
ctest --preset tsan -R 'TrialRunner|Sweep|Accumulator|ThreadInvariance'

echo "== perf pipeline vs committed baseline =="
# The dev preset was built above; rerun the perf suite and fail on >15%
# regression against bench/baselines/BENCH_perf_pipeline.json.
./build-dev/bench/bench_perf_pipeline --benchmark_min_time=0.2 \
    --json build-dev/BENCH_perf_pipeline.json
python3 scripts/bench_compare.py build-dev/BENCH_perf_pipeline.json

echo "== all checks passed =="
