#!/usr/bin/env bash
# Static-analysis pass: clang-tidy (when installed) over every translation
# unit in src/ bench/ tests/ examples/ using the committed .clang-tidy, then
# the determinism linter (tools/detlint). Run from anywhere in the repo.
#
# Usage: scripts/lint.sh [--build-dir DIR] [--tidy-only|--detlint-only]
#
# clang-tidy is optional tooling: if no binary is found the tidy leg is
# skipped with a notice (CI images install it; minimal dev containers may
# not). The determinism linter has no dependencies beyond python3 and always
# runs — it is the half of the pass that guards the (spec, seed) ->
# byte-identical-report contract.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build
RUN_TIDY=1
RUN_DETLINT=1
while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --tidy-only) RUN_DETLINT=0; shift ;;
    --detlint-only) RUN_TIDY=0; shift ;;
    *) echo "lint.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

status=0

if [[ "$RUN_TIDY" == 1 ]]; then
  TIDY=""
  for cand in clang-tidy clang-tidy-18 clang-tidy-17 clang-tidy-16 \
              clang-tidy-15 clang-tidy-14; do
    if command -v "$cand" >/dev/null 2>&1; then TIDY="$cand"; break; fi
  done
  if [[ -z "$TIDY" ]]; then
    echo "lint: clang-tidy not installed; skipping the tidy leg" >&2
  else
    if [[ ! -f "$BUILD_DIR/compile_commands.json" ]]; then
      echo "== lint: configuring $BUILD_DIR for compile_commands.json =="
      cmake -B "$BUILD_DIR" -S . >/dev/null
    fi
    echo "== lint: $TIDY over src/ bench/ tests/ examples/ =="
    mapfile -t TUS < <(find src bench tests examples -name '*.cpp' | sort)
    if ! printf '%s\n' "${TUS[@]}" | xargs -P "$(nproc)" -n 4 \
        "$TIDY" -p "$BUILD_DIR" --quiet --warnings-as-errors='*'; then
      echo "lint: clang-tidy found issues" >&2
      status=1
    fi
  fi
fi

if [[ "$RUN_DETLINT" == 1 ]]; then
  echo "== lint: determinism linter (tools/detlint) =="
  # Pinned allow counts: the PrepClock alias in src/core (Fig. 8 prep-cost
  # measurement) and the BenchClock aliases in bench/ (fig8_prep_time,
  # hotpath, scale's flows/sec, and verify's plans/sec measurements). A
  # new sanctioned wall-clock site must bump these explicitly.
  # bench/mc.cpp, bench/verify.cpp, and bench/churn.cpp are
  # promoted to campaign-critical: their merged reports, counterexamples,
  # and verdict/witness artifacts gate CI, so hash-order iteration and
  # deferred [&]-captures are banned there exactly as in src/.
  # thread-containment keeps raw threading inside the job runner, with no
  # annotated exception elsewhere in src/.
  if ! python3 tools/detlint/detlint.py --repo . \
      --critical src bench/mc.cpp bench/verify.cpp bench/churn.cpp \
      --expect-allowed wall-clock:src=1 \
      --expect-allowed wall-clock:bench=4 \
      --expect-allowed thread-containment:src=0; then
    echo "lint: detlint found issues" >&2
    status=1
  fi
fi

if [[ "$status" == 0 ]]; then echo "lint: OK"; fi
exit "$status"
