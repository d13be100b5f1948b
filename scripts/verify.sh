#!/usr/bin/env bash
# Tier-1 verification, four legs:
#   1. plain build + full ctest,
#   2. the same suite under ASan + UBSan (P4U_SANITIZE=ON),
#   3. the parallel campaign runner under ThreadSanitizer (P4U_TSAN=ON),
#   4. static analysis: warnings-hardened -Werror build (P4U_WERROR=ON)
#      plus scripts/lint.sh (clang-tidy when installed + the determinism
#      linter, which must report exactly one allowed wall-clock site).
# Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"

echo "== tier-1: RelWithDebInfo build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== tier-1: ASan + UBSan build + ctest =="
cmake -B build-asan -S . -DP4U_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  >/dev/null
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "== tier-1: TSan build + parallel-runner/campaign tests =="
# TSan and ASan are mutually exclusive, so this is a third tree; only the
# threaded code path (the campaign's worker pool) needs the data-race pass.
cmake -B build-tsan -S . -DP4U_TSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  >/dev/null
cmake --build build-tsan -j "$JOBS" --target harness_test
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
  -R 'ParallelRunner|Campaign'

echo "== tier-1: -Werror hardened build + static analysis =="
cmake -B build-lint -S . -DP4U_WERROR=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  >/dev/null
cmake --build build-lint -j "$JOBS"
scripts/lint.sh --build-dir build-lint

echo "verify: OK"
