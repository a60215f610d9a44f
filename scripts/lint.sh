#!/usr/bin/env bash
# Static analysis gate for src/, tests/, and bench/ (also wired as the
# `lint` CMake target).
#
# First, a source rule: src/util/env.cpp is the only file under src/ and
# bench/ that may call getenv, so every SRUMMA_* variable goes through the
# one strict reader (util/env.hpp).
#
# Preferred backend: clang-tidy over a compile_commands.json, using the
# checks in .clang-tidy (bugprone-*, concurrency-*, performance-*).  When
# clang-tidy is not installed (the reference container ships GCC only) the
# script falls back to a strict warnings-as-errors GCC build of the library,
# test, and bench targets, which still catches the bulk of the
# bugprone/performance classes the tidy profile targets.
#
# Usage: scripts/lint.sh [build-dir]
# Exits non-zero on any finding.

set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${1:-$repo/build}"
jobs="$(nproc 2>/dev/null || echo 2)"

echo "== lint: getenv outside src/util/env.cpp =="
if offenders="$(grep -rlE 'getenv[[:space:]]*\(' "$repo/src" "$repo/bench" \
                  | grep -vx "$repo/src/util/env.cpp")"; then
  echo "lint: getenv called outside src/util/env.cpp (use util/env.hpp):"
  echo "$offenders"
  exit 1
fi
echo "lint: one getenv reader"

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== lint: clang-tidy over src/ tests/ bench/ =="
  if [ ! -f "$build/compile_commands.json" ]; then
    cmake -B "$build" -S "$repo" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  fi
  mapfile -t sources \
    < <(find "$repo/src" "$repo/tests" "$repo/bench" -name '*.cpp' | sort)
  clang-tidy -p "$build" --quiet --warnings-as-errors='*' "${sources[@]}"
  echo "lint: clang-tidy clean"
  exit 0
fi

echo "== lint: clang-tidy not found; strict GCC warnings build of src/ tests/ bench/ =="
lint_build="$repo/build-lint"
cmake -B "$lint_build" -S "$repo" \
  -DSRUMMA_WERROR=ON \
  -DSRUMMA_BUILD_TESTS=ON \
  -DSRUMMA_BUILD_BENCH=ON \
  -DSRUMMA_BUILD_EXAMPLES=OFF \
  -DCMAKE_CXX_FLAGS="-Wnon-virtual-dtor -Woverloaded-virtual -Wcast-align \
-Wpointer-arith -Wundef -Wwrite-strings -Wvla -Wformat=2 \
-Wimplicit-fallthrough=5 -Wlogical-op -Wduplicated-cond -Wduplicated-branches \
-Wconversion -Wsign-conversion" \
  >/dev/null
cmake --build "$lint_build" -j "$jobs"
echo "lint: strict GCC build clean"
