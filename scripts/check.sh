#!/usr/bin/env bash
# Tier-1 verification wrapper (see docs/CHECKING.md for the full matrix):
#   1.  configure + build + full ctest suite (Release);
#   1b. an ASan/UBSan build of the library running the kernel-verification
#       harness (test_gemm_kernels), the pooled fiber harness and its stack
#       cache (test_harness_pool), the task-plan suite (test_task_plan),
#       the multiply suite (test_srumma), whose plan memo keeps plan
#       storage alive on C across multiplies, the virtual-time suite
#       (test_vtime), whose cache-line-aligned Resource needs aligned new
#       and delete, the executor and analyzer suites (test_engine,
#       test_analysis), whose operand slots are released and reused in
#       place within one multiply,
#       the fault and chaos suites (test_fault_recovery, test_chaos),
#       whose operand re-arms re-target live, shared operand buffers, and
#       the one-sided suites (test_rma, test_dist, test_msg, test_ga),
#       which drive the strided copy, the locked accumulate and the piece
#       offsets of the generalized ops, under the sanitizers; then the
#       dispatch guard (an AVX-512 host must auto-select the avx512
#       kernel) and the multiply suites pinned to the avx2 kernel, which
#       auto-selection no longer picks on such hosts;
#   1c. the full suite again with the shadow-state RMA checker enabled
#       (SRUMMA_RMA_CHECK=1) — any diagnostic fails the run;
#   1d. the fault matrix (docs/FAULTS.md): the dedicated fault suites
#       (ctest label `faults`) in a clean environment, then the rest of
#       the suite with low-rate fail+delay injection and a raised retry
#       budget — every code path must survive transparent retries.
#       Corruption is only injected inside the labeled suites, which
#       verify and repair it; unsuspecting tests would (correctly) fail.
#   1e. observability (docs/OBSERVABILITY.md): a small traced multiply
#       (SRUMMA_TRACE) plus a smoke bench-metrics run, validating both
#       emitted JSON documents (schema, matched async pairs, monotone
#       per-rank instant/counter timestamps); then loud misconfiguration:
#       quickstart must fail, naming the variable, under a mistyped
#       variable name and under a malformed flag value;
#   1f. the cooperative block cache (docs/CACHE.md): the full suite with
#       SRUMMA_CACHE=1, then cache x RMA checker, then cache x fault
#       injection (faults-labeled suites excluded, as in 1d) — caching
#       must be invisible to every correctness, checker, and fault path;
#   1g. the plan operand lifetime (docs/ENGINE.md): the
#       SRUMMA-executing suites with SRUMMA_ENGINE=1, so every multiply
#       holds each fetched patch until its last reader — C must stay
#       bitwise identical and the engine ledger must reconcile
#       (test_block_cache is excluded: its single-flight sharing test pins
#       the window lifetime's fetch schedule, which holding patches
#       legitimately changes); then test_engine 10x under 4-way parallel
#       load at 1 and at 3 harness workers;
#   1h. the static plan analyzer (docs/ANALYSIS.md): srumma-analyze must
#       certify a sweep of clean configurations with zero findings, flag
#       all four seeded plan-mutation classes, and cross-validate the
#       dynamic RMA checker on journaled runs of both operand lifetimes,
#       the plan lifetime also on one harness worker, via the
#       happens-before race detector (--trace);
#   1i. permanent domain death (docs/FAULTS.md §7): every kill point x
#       lifetime through the SRUMMA_FAULT_KILL_* environment knobs under
#       the RMA checker — buddy replication + task adoption must recover
#       the exact result with zero checker diagnostics; then the same six
#       runs journaled on one harness worker and cross-validated by the
#       happens-before race detector (--trace);
#   1j. the GEMM request plane (docs/SERVICE.md): the service suite under
#       the shadow-state RMA checker (every concurrent sub-team's epochs
#       verified independently), then under low-rate env fault injection
#       with a raised retry budget — scheduling decisions, batch packing,
#       and the bitwise-identity contract must survive both;
#   1k. the pooled execution harness (docs/HARNESS.md): a 1024-rank
#       pooled smoke run under a wall-clock budget, the pooled vs
#       thread-per-rank differential on a contention-free workload
#       (modeled results must match bitwise), and the static
#       buffer_bytes_peak bound re-asserted against a pooled-mode
#       multiply (bench_scale --check);
#   2.  a TSan build running the concurrency-heavy suites
#       (test_rma, test_runtime, test_srumma, test_rma_checker,
#       test_block_cache, test_engine, test_chaos, test_service,
#       test_harness_pool, test_vtime, test_perf): among them the pooled
#       fiber scheduler, the Resource booking spin lock under concurrent
#       bookers, and collect_result's reduction by a barrier's last
#       arriver on three workers;
#   3.  static analysis via scripts/lint.sh.
#
# Usage: scripts/check.sh [build-dir] [asan-build-dir] [tsan-build-dir]
# Exits non-zero on the first failure.

set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${1:-$repo/build}"
asan_build="${2:-$repo/build-asan}"
tsan_build="${3:-$repo/build-tsan}"
jobs="$(nproc 2>/dev/null || echo 2)"

echo "== tier 1: configure + build + ctest ($build) =="
cmake -B "$build" -S "$repo"
cmake --build "$build" -j "$jobs"
ctest --test-dir "$build" --output-on-failure -j "$jobs"

echo
echo "== tier 1b: kernels, fiber harness, task plans and their memo, Resource, executor and analyzer, fault re-arm, one-sided layer under ASan/UBSan ($asan_build), dispatch =="
cmake -B "$asan_build" -S "$repo" \
  -DSRUMMA_SANITIZE=address,undefined \
  -DSRUMMA_BUILD_BENCH=OFF \
  -DSRUMMA_BUILD_EXAMPLES=OFF
cmake --build "$asan_build" -j "$jobs" \
  --target test_gemm_kernels --target test_harness_pool --target test_task_plan \
  --target test_srumma --target test_vtime \
  --target test_engine --target test_analysis \
  --target test_fault_recovery --target test_chaos \
  --target test_rma --target test_dist --target test_msg --target test_ga
ctest --test-dir "$asan_build" --output-on-failure \
  -R '^(test_gemm_kernels|test_harness_pool|test_task_plan|test_srumma|test_vtime|test_engine|test_analysis|test_fault_recovery|test_chaos|test_rma|test_dist|test_msg|test_ga)$'
# A silently failed -mavx512f probe would drop the kernel from the registry
# and fall back to avx2 without any test failing; catch it here.
if grep -qw avx512f /proc/cpuinfo 2> /dev/null; then
  kernel="$(env -u SRUMMA_GEMM_KERNEL "$build/examples/quickstart" \
              --n 96 --nodes 2 | sed -n 's/^serial dgemm kernel: //p')"
  if [[ "$kernel" != avx512 ]]; then
    echo "check.sh: CPU has avx512f but dispatch picked '$kernel'"
    exit 1
  fi
  echo "dispatch: avx512 auto-selected"
fi
if grep -qw avx2 /proc/cpuinfo 2> /dev/null; then
  SRUMMA_GEMM_KERNEL=avx2 ctest --test-dir "$build" --output-on-failure \
    -R '^(test_srumma|test_engine|test_integration)$'
else
  echo "check.sh: CPU lacks avx2, skipping the avx2-pinned multiply suites"
fi

echo
echo "== tier 1c: full suite with the RMA checker enabled ($build) =="
SRUMMA_RMA_CHECK=1 ctest --test-dir "$build" --output-on-failure -j "$jobs"

echo
echo "== tier 1d: fault matrix (label 'faults', then injected full pass) =="
ctest --test-dir "$build" --output-on-failure -L faults
# Low-rate transient failures + stragglers across every other suite; the
# raised attempt budget makes retry exhaustion statistically impossible,
# so any failure here is a real retry-path bug.  The `faults` suites are
# excluded: they assert clean-environment baselines and inject their own.
SRUMMA_FAULT_FAIL_RATE=0.002 \
SRUMMA_FAULT_DELAY_RATE=0.002 \
SRUMMA_FAULT_MAX_ATTEMPTS=20 \
  ctest --test-dir "$build" --output-on-failure -j "$jobs" -LE faults

echo
echo "== tier 1e: traced multiply + bench metrics, JSON validation =="
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
SRUMMA_TRACE="$trace_dir/trace.json" \
  "$build/examples/quickstart" --n 96 --nodes 2 > /dev/null
SRUMMA_BENCH_SMOKE=1 SRUMMA_BENCH_JSON="$trace_dir/fig3.json" \
  "$build/bench/bench_fig3_pipeline" > /dev/null
if command -v python3 > /dev/null; then
  python3 - "$trace_dir/trace.json" "$trace_dir/fig3.json" << 'EOF'
import json, sys
from collections import defaultdict

with open(sys.argv[1]) as f:
    trace = json.load(f)
assert trace["otherData"]["schema"] == "srumma-chrome-trace/1"
events = trace["traceEvents"]
assert events, "trace has no events"
last_ts = defaultdict(float)   # per (pid, tid) monotone instants/counters
open_async = defaultdict(dict)
spans = counters = 0
for e in events:
    ph = e["ph"]
    if ph == "M":
        continue
    key = (e["pid"], e["tid"])
    assert e["ts"] >= 0.0, e
    if ph == "X":
        assert e["dur"] >= 0.0, e
        spans += 1
    elif ph == "b":
        open_async[key][e["id"]] = e["ts"]
        spans += 1
    elif ph == "e":
        assert e["ts"] >= open_async[key].pop(e["id"]), e
    elif ph in ("i", "C"):
        # Recorded at the owning rank's clock: must never run backwards.
        assert e["ts"] >= last_ts[key] - 1e-9, e
        last_ts[key] = e["ts"]
        counters += ph == "C"
    else:
        raise AssertionError(f"unexpected phase {ph}")
assert not any(open_async.values()), "unmatched async begin events"
assert spans and counters, "expected both spans and counter samples"
print(f"{sys.argv[1]}: ok ({len(events)} events)")

with open(sys.argv[2]) as f:
    doc = json.load(f)
assert doc["schema"] == "srumma-bench-metrics/1"
assert doc["rows"] and all(r["metrics"] for r in doc["rows"])
for row in doc["rows"]:
    # fig3 rows embed the srumma-analyze static ceiling; the measured
    # peak crossing it would falsify the analyzer's resource-bound proof.
    bound = row["params"].get("buffer_bytes_peak_bound")
    peak = row["counters"].get("buffer_bytes_peak")
    assert bound is not None and peak is not None, \
        f"fig3/{row['label']}: missing static bound or runtime peak"
    assert peak <= bound, (
        f"fig3/{row['label']}: buffer_bytes_peak {peak} exceeds "
        f"static bound {bound}")
print(f"{sys.argv[2]}: ok ({len(doc['rows'])} rows, peaks under bounds)")
EOF
else
  echo "check.sh: python3 not found, skipping trace JSON validation"
fi
# Misconfiguration fails loudly (util/env.hpp): a mistyped name and a
# malformed flag value each stop the run with an error naming the variable.
for setting in SRUMMA_ENGIN=1 SRUMMA_CACHE=false; do
  if out="$(ulimit -c 0
             env "$setting" "$build/examples/quickstart" --n 96 --nodes 2 2>&1)"
  then
    echo "check.sh: quickstart accepted $setting"
    exit 1
  fi
  if [[ "$out" != *"${setting%%=*}"* ]]; then
    echo "check.sh: the error for $setting does not name the variable"
    exit 1
  fi
done
echo "environment: a mistyped name and a malformed value both fail loudly"

echo
echo "== tier 1f: cooperative block cache (on x checker x faults) =="
# The cache is off by default; these passes force it on across the whole
# suite.  Results must be bit-identical, the shadow-state checker must
# stay silent (cache reads register at the true remote origin), and the
# fault plane must interoperate (a failed single-flight fetch is re-armed
# by a waiter, never silently shared).
SRUMMA_CACHE=1 ctest --test-dir "$build" --output-on-failure -j "$jobs"
SRUMMA_CACHE=1 SRUMMA_RMA_CHECK=1 \
  ctest --test-dir "$build" --output-on-failure -j "$jobs"
SRUMMA_CACHE=1 \
SRUMMA_FAULT_FAIL_RATE=0.002 \
SRUMMA_FAULT_DELAY_RATE=0.002 \
SRUMMA_FAULT_MAX_ATTEMPTS=20 \
  ctest --test-dir "$build" --output-on-failure -j "$jobs" -LE faults

echo
echo "== tier 1g: plan operand lifetime across the multiply suites =="
# Forces the plan lifetime (docs/ENGINE.md) through every suite that
# drives srumma_multiply.  Its fetch schedule differs from the window
# lifetime's, C does not, so correctness, checker, fault and accounting
# assertions must all hold unchanged.
# test_block_cache asserts the window lifetime's exact fetch schedule
# (single-flight share counts), which holding patches changes, so it
# stays a window-lifetime suite.
SRUMMA_ENGINE=1 ctest --test-dir "$build" --output-on-failure \
  -R '^(test_engine|test_srumma|test_task_plan|test_fault_recovery|test_integration|test_rma_checker)$'
# The executor's suite under host load: 10 rounds of 4 parallel test_engine
# copies, at one harness worker and at three, so a host-order dependence
# in its results (bitwise C, the exact ledger, the reproducible
# one-worker straggler timing) shows up as a failure.
for threads in 1 3; do
  pids=()
  for copy in 1 2 3 4; do
    (
      for round in $(seq 10); do
        SRUMMA_ENGINE=1 SRUMMA_HARNESS_THREADS="$threads" \
          "$build/tests/test_engine" > /dev/null || exit 1
      done
    ) &
    pids+=("$!")
  done
  for pid in "${pids[@]}"; do
    wait "$pid" || { echo "check.sh: test_engine failed under load" \
                          "(SRUMMA_HARNESS_THREADS=$threads)"; exit 1; }
  done
done
echo "engine: test_engine passed 40x at 1 and 40x at 3 harness workers"

echo
echo "== tier 1h: static plan analyzer + happens-before cross-check =="
analyze="$build/tools/srumma-analyze"
# Clean sweep: the analyzer must certify (exit 0, zero findings) one
# configuration per machine family the paper reports, covering both
# shared-memory flavors, tiling, and an oversubscribed SMP.
clean_configs=(
  "--machine testing --nodes 2 --rpn 2 --m 96 --n 96 --k 96"
  "--machine testing --nodes 2 --rpn 2 --m 96 --n 96 --k 96 --flavor copy"
  "--machine cluster --nodes 4 --m 192 --n 192 --k 192 --c-chunk 48"
  "--machine sp --nodes 2 --m 128 --n 128 --k 128"
  "--machine x1 --nodes 2 --flavor copy --m 96 --n 96 --k 96"
  "--machine altix --nodes 4 --rpn 2 --m 96 --n 96 --k 96"
)
for cfg in "${clean_configs[@]}"; do
  # shellcheck disable=SC2086
  "$analyze" $cfg > /dev/null \
    || { echo "check.sh: analyzer rejected clean config: $cfg"; exit 1; }
done
echo "analyzer: ${#clean_configs[@]} clean configurations certified"
# Negative tests: every seeded mutation class must be flagged (nonzero
# exit).  A mutation slipping through means the analyzer lost coverage.
for mut in drop-wait reorder-commit widen-get adopt-chain; do
  if "$analyze" --machine cluster --nodes 2 --flavor copy \
      --m 96 --n 96 --k 96 --k-chunk 24 --mutate "$mut" > /dev/null 2>&1; then
    echo "check.sh: analyzer missed seeded mutation: $mut"
    exit 1
  fi
done
echo "analyzer: all 4 seeded mutation classes flagged"
# Happens-before cross-validation: journal real runs of both operand
# lifetimes under the dynamic checker, then prove the epoch-based checker
# missed no race the HB model finds (srumma-analyze --trace exits nonzero
# on a miss).  The plan lifetime runs again on one harness worker, where
# every rank shares one heap, so an operand buffer freed before the closing
# barriers would be reallocated to another rank and flagged here on every
# run.
SRUMMA_RMA_CHECK=1 SRUMMA_RMA_JOURNAL="$trace_dir/journal_pipeline.jsonl" \
  "$build/examples/quickstart" --n 96 --nodes 2 > /dev/null
"$analyze" --trace "$trace_dir/journal_pipeline.jsonl" > /dev/null
SRUMMA_ENGINE=1 SRUMMA_RMA_CHECK=1 \
SRUMMA_RMA_JOURNAL="$trace_dir/journal_engine.jsonl" \
  "$build/examples/quickstart" --n 96 --nodes 2 > /dev/null
"$analyze" --trace "$trace_dir/journal_engine.jsonl" > /dev/null
SRUMMA_ENGINE=1 SRUMMA_HARNESS_THREADS=1 SRUMMA_RMA_CHECK=1 \
SRUMMA_RMA_JOURNAL="$trace_dir/journal_engine_1w.jsonl" \
  "$build/examples/quickstart" --n 96 --nodes 2 > /dev/null
"$analyze" --trace "$trace_dir/journal_engine_1w.jsonl" > /dev/null
echo "analyzer: HB race detector cross-validated both lifetimes' journals"

echo
echo "== tier 1i: permanent-kill sweep under the RMA checker =="
# Every kill point x lifetime through the SRUMMA_FAULT_* environment path
# (docs/FAULTS.md §7): domain 1 of a 4-node cluster fail-stops mid-run,
# survivors adopt its work from the buddy replicas, and quickstart's
# serial-reference comparison proves the recovered C exact while the
# shadow-state checker proves the recovery epochs race-free.
for point in prefetch chain barrier; do
  for engine in 0 1; do
    SRUMMA_ENGINE="$engine" SRUMMA_RMA_CHECK=1 \
    SRUMMA_FAULT_KILL_DOMAIN=1 SRUMMA_FAULT_KILL_POINT="$point" \
    SRUMMA_FAULT_BUDDY_OFFSET=1 \
      "$build/examples/quickstart" --n 96 --nodes 4 > /dev/null \
      || { echo "check.sh: kill sweep failed: point=$point engine=$engine"
           exit 1; }
  done
done
echo "kill sweep: 3 points x 2 lifetimes recovered exactly, checker silent"
# The same sweep journaled on one harness worker, where every rank shares
# one heap: an adopter buffer freed before the recovery's closing barrier
# would be reallocated to another rank, and the happens-before race
# detector (srumma-analyze --trace) would flag it on every run.
for point in prefetch chain barrier; do
  for engine in 0 1; do
    journal="$trace_dir/journal_kill_${point}_${engine}_1w.jsonl"
    SRUMMA_ENGINE="$engine" SRUMMA_HARNESS_THREADS=1 SRUMMA_RMA_CHECK=1 \
    SRUMMA_RMA_JOURNAL="$journal" \
    SRUMMA_FAULT_KILL_DOMAIN=1 SRUMMA_FAULT_KILL_POINT="$point" \
    SRUMMA_FAULT_BUDDY_OFFSET=1 \
      "$build/examples/quickstart" --n 96 --nodes 4 > /dev/null \
      || { echo "check.sh: 1-worker kill run failed: point=$point" \
                "engine=$engine"; exit 1; }
    "$analyze" --trace "$journal" > /dev/null \
      || { echo "check.sh: HB race detector flagged the 1-worker kill run:" \
                "point=$point engine=$engine"; exit 1; }
  done
done
echo "kill sweep: 3 points x 2 lifetimes on 1 worker cross-validated by HB"

echo
echo "== tier 1j: request plane under checker + fault injection =="
# The service suite already ran clean in tier 1 and under the checker in
# tier 1c; these arms make the two service-critical matrices explicit.
# Checker arm: each job's sub-team owns an independent shadow state, so a
# cross-job epoch leak surfaces here.  Fault arm: low-rate transient
# failures under a raised retry budget — the RMA layer absorbs every
# fault, so job-level outcomes, scheduling order, and bitwise identity
# must be unchanged (suites that inject their own planes override the
# env plane per sub-team, keeping their exact-count assertions valid).
SRUMMA_RMA_CHECK=1 \
  ctest --test-dir "$build" --output-on-failure -R '^test_service$'
SRUMMA_FAULT_FAIL_RATE=0.002 \
SRUMMA_FAULT_DELAY_RATE=0.002 \
SRUMMA_FAULT_MAX_ATTEMPTS=20 \
  ctest --test-dir "$build" --output-on-failure -R '^test_service$'

echo
echo "== tier 1k: pooled harness — 1024-rank smoke + mode differential =="
cmake --build "$build" -j "$jobs" --target bench_scale
"$build/bench/bench_scale" --check

echo
echo "== tier 2: concurrency suites under TSan ($tsan_build) =="
cmake -B "$tsan_build" -S "$repo" \
  -DSRUMMA_SANITIZE=thread \
  -DSRUMMA_BUILD_BENCH=OFF \
  -DSRUMMA_BUILD_EXAMPLES=OFF
cmake --build "$tsan_build" -j "$jobs" \
  --target test_rma --target test_runtime --target test_srumma \
  --target test_rma_checker --target test_block_cache --target test_engine \
  --target test_chaos --target test_service --target test_harness_pool \
  --target test_vtime --target test_perf
# halt_on_error: a data race must fail the suite, not just print.
TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
  ctest --test-dir "$tsan_build" --output-on-failure \
  -R '^(test_rma|test_runtime|test_srumma|test_rma_checker|test_block_cache|test_engine|test_chaos|test_service|test_harness_pool|test_vtime|test_perf)$'

echo
echo "== tier 3: static analysis (scripts/lint.sh) =="
"$repo/scripts/lint.sh" "$build"

echo
echo "check.sh: all green"
