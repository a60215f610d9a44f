#!/usr/bin/env bash
# End-to-end benchmark of srumma (bench/e2e/README.md).
#
# Run from the repository root:
#
#   bash bench/e2e/run.sh --workload cluster_nn_real --seed 1 --seconds 20 --trace 0
#   bash bench/e2e/run.sh            # every workload, untraced then traced
#
# Builds the library in build-e2e/ (tests, benches and examples off),
# installs it to build-e2e/prefix, builds bench/e2e against the installed
# package, then runs each workload in its own process.  The last line of a
# single-workload run is its JSON result.
set -euo pipefail

if [[ ! -f CMakeLists.txt || ! -d src || ! -f bench/e2e/CMakeLists.txt ]]; then
  echo "run.sh: run from the root of a srumma source tree" >&2
  exit 2
fi

# A clean environment: no SRUMMA_* knob may leak in, and the harness runs
# at most nproc threads including the calling one.
while IFS= read -r var; do unset "$var"; done < <(compgen -e | grep '^SRUMMA_' || true)
cores=$(nproc)
export SRUMMA_HARNESS_THREADS=$(( cores > 1 ? cores - 1 : 1 ))

build=build-e2e
mkdir -p "$build"
log="$build/build.log"
if ! {
  cmake -S . -B "$build" -DCMAKE_BUILD_TYPE=Release \
    -DSRUMMA_BUILD_TESTS=OFF -DSRUMMA_BUILD_BENCH=OFF \
    -DSRUMMA_BUILD_EXAMPLES=OFF -DCMAKE_INSTALL_PREFIX="$PWD/$build/prefix" &&
  cmake --build "$build" -j "$cores" &&
  cmake --install "$build" &&
  cmake -S bench/e2e -B "$build/e2e" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_PREFIX_PATH="$PWD/$build/prefix" \
    -DCMAKE_FIND_USE_PACKAGE_REGISTRY=OFF \
    -DCMAKE_FIND_USE_SYSTEM_PACKAGE_REGISTRY=OFF &&
  cmake --build "$build/e2e" -j "$cores"
} > "$log" 2>&1; then
  cat "$log" >&2
  echo "run.sh: build failed" >&2
  exit 1
fi

commit=unknown
if [[ -e .git ]]; then
  commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
bin="$build/e2e/srumma_e2e"

if [[ " $* " == *" --workload "* || " $* " == *" --workload="* ]]; then
  exec "$bin" --commit "$commit" "$@"
fi
status=0
for trace in 0 1; do
  for w in cluster_nn_real sp_tn_engine_cache_real scale1024_phantom \
           service_mix_phantom; do
    "$bin" --commit "$commit" --workload "$w" --trace "$trace" "$@" || status=1
    echo
  done
done
exit "$status"
