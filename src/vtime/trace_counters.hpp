#pragma once
// Per-rank instrumentation counters.
//
// Every rank accumulates these as it executes; the trace module aggregates
// them into the per-experiment reports (achieved overlap, bytes moved by
// protocol, host-CPU steal).  All fields are in seconds or bytes.
//
// Aggregation: every field is summed across ranks (operator+=) and
// differenced across run snapshots (trace_delta) EXCEPT buffer_bytes_peak,
// which is a per-run high-water mark — MAX across ranks, end value across
// snapshots.  When adding a field, update operator+= below, trace_delta and
// the sizeof guard in trace/report.cpp, and counters_json in
// trace/metrics_json.cpp (docs/OBSERVABILITY.md documents the schema).

#include <algorithm>
#include <cstdint>

namespace srumma {

struct TraceCounters {
  // -- computation (SUM) ----------------------------------------------------
  double time_compute = 0.0;  ///< modeled dgemm time (SUM)
  std::uint64_t gemm_calls = 0;  ///< (SUM)
  double flops = 0.0;            ///< (SUM)

  // -- communication (SUM) --------------------------------------------------
  double time_comm = 0.0;  ///< modeled transfer durations issued (SUM)
  double time_wait = 0.0;  ///< clock actually lost blocking on completions
                           ///< (SUM); equals the traced Wait + RecoveryWait
                           ///< span totals (see trace/tracer.hpp)
  double time_noise = 0.0; ///< OS daemon-preemption time injected (SUM)
  std::uint64_t bytes_shm = 0;     ///< intra-domain copy traffic (SUM)
  std::uint64_t bytes_remote = 0;  ///< inter-node RMA traffic (SUM)
  std::uint64_t bytes_msg = 0;     ///< two-sided (MPI-model) traffic sent (SUM)
  std::uint64_t gets = 0;   ///< (SUM)
  std::uint64_t puts = 0;   ///< (SUM; includes accumulates)
  std::uint64_t sends = 0;  ///< (SUM)
  std::uint64_t recvs = 0;  ///< (SUM)
  std::uint64_t direct_tasks = 0;  ///< block products fed views in place (SUM)
  std::uint64_t copy_tasks = 0;    ///< block products fed copied buffers (SUM)
  /// Algorithm-internal buffer memory on one rank (communication panels,
  /// circulation temps, redistribution temporaries — not the matrices
  /// themselves).  A high-water mark: each top-level algorithm
  /// max-accumulates its own footprint, so a later smaller run never
  /// erases the peak (Team::reset clears it between experiments).  The one
  /// MAX-aggregated field: team totals report the worst rank's footprint,
  /// and trace_delta carries the end value instead of a difference.
  std::uint64_t buffer_bytes_peak = 0;

  // -- fault injection & recovery (SUM) (src/fault, RetryPolicy, pipeline) --
  std::uint64_t faults_injected = 0;   ///< transient failures injected (SUM)
  std::uint64_t faults_corrupted = 0;  ///< payload corruptions applied (SUM)
  std::uint64_t faults_delayed = 0;    ///< straggler-op delays applied (SUM)
  std::uint64_t rma_retries = 0;       ///< re-issues performed by waits (SUM)
  std::uint64_t rma_op_timeouts = 0;   ///< attempts hit op_timeout (SUM)
  /// Handles drained with the terminal RmaStatus::DomainDead after their
  /// target's shared-memory domain fail-stopped (SUM).  Counted separately
  /// from rma_op_timeouts: "peer gone" is not "peer slow".
  std::uint64_t rma_domain_dead = 0;
  std::uint64_t task_requeues = 0;     ///< tasks re-enqueued at tail (SUM)
  /// Operand fetches re-issued after a task's first acquire failed: the
  /// legacy pipeline counts the re-issue of each requeued tail copy, the
  /// task engine counts each fetch re-arm (SUM).  Keeps the classification
  /// identity exact under faults:
  ///   copy_tasks + direct_tasks == block products executed
  /// — re-acquires inflate task_reissues, never the class counters.
  std::uint64_t task_reissues = 0;
  std::uint64_t shm_fallbacks = 0;     ///< Direct -> Copy degradations (SUM)
  std::uint64_t checksum_redos = 0;    ///< patches refetched (corruption) (SUM)
  /// Virtual time sunk into recovery: waits on failed attempts, retry
  /// backoff, checksum verification refetches and redone block products
  /// (SUM); equals the traced RecoveryWait + Backoff + Redo span totals.
  double time_recovery = 0.0;

  // -- cooperative block cache (SUM) (src/cache, docs/CACHE.md) -------------
  std::uint64_t cache_hits = 0;       ///< entry ready at request time (SUM)
  std::uint64_t cache_joins = 0;      ///< joined an in-flight fetch (SUM)
  std::uint64_t cache_misses = 0;     ///< became the single-flight fetcher (SUM)
  std::uint64_t cache_bypasses = 0;   ///< capacity/epoch made caching impossible (SUM)
  std::uint64_t cache_evictions = 0;  ///< LRU evictions under pressure (SUM)
  std::uint64_t cache_rearms = 0;     ///< dirty entries re-armed by waiters (SUM)
  /// Ready entries whose publishing get was issued AFTER the requester's
  /// virtual now — on a real machine the requester would have fetched first,
  /// so sharing would time-travel; it fetches itself instead (SUM).
  std::uint64_t cache_refetches = 0;
  /// Modeled inter-node bytes NOT transferred because a domain mate's fetch
  /// was shared (SUM) — the cache's headline gauge.
  std::uint64_t cache_bytes_saved = 0;

  // -- dependency-driven task engine (SUM) (src/engine, docs/ENGINE.md) -----
  /// Block products a rank executed for its own C tiles through the engine
  /// (SUM).  Engine runs reconcile exactly:
  ///   engine_tasks + tasks_stolen == copy_tasks + direct_tasks.
  std::uint64_t engine_tasks = 0;
  /// Block products executed by an idle domain mate on the owner's behalf,
  /// counted on the thief at handback publish (SUM); the owner still
  /// commits the C tile, so every stolen task also appears in exactly one
  /// of copy_tasks/direct_tasks (again on the thief).
  std::uint64_t tasks_stolen = 0;
  /// try_steal calls that saw claimable work on a mate's board but whose
  /// virtual-time admission test denied every candidate (SUM; docs/ENGINE.md
  /// §3) — the steals that would have stalled their victims.
  std::uint64_t steals_denied = 0;
  /// Block products replayed by a survivor on behalf of a permanently dead
  /// domain's ranks, from the buddy replicas into scratch (SUM); each also
  /// appears in exactly one of copy_tasks/direct_tasks and in gemm_calls,
  /// so recovery runs reconcile as
  ///   engine_tasks + tasks_stolen + tasks_adopted
  ///     == copy_tasks + direct_tasks == gemm_calls.
  std::uint64_t tasks_adopted = 0;

  /// Fraction of issued communication hidden behind computation:
  /// 1 - time_wait/time_comm, clamped to [0, 1].  The paper reports >90%
  /// overlap for SRUMMA on the Linux cluster.
  [[nodiscard]] double overlap() const {
    if (time_comm <= 0.0) return 1.0;
    const double w = 1.0 - time_wait / time_comm;
    if (w < 0.0) return 0.0;
    if (w > 1.0) return 1.0;
    return w;
  }

  TraceCounters& operator+=(const TraceCounters& o) {
    time_compute += o.time_compute;
    gemm_calls += o.gemm_calls;
    flops += o.flops;
    time_comm += o.time_comm;
    time_wait += o.time_wait;
    time_noise += o.time_noise;
    bytes_shm += o.bytes_shm;
    bytes_remote += o.bytes_remote;
    bytes_msg += o.bytes_msg;
    gets += o.gets;
    puts += o.puts;
    sends += o.sends;
    recvs += o.recvs;
    direct_tasks += o.direct_tasks;
    copy_tasks += o.copy_tasks;
    buffer_bytes_peak = std::max(buffer_bytes_peak, o.buffer_bytes_peak);
    faults_injected += o.faults_injected;
    faults_corrupted += o.faults_corrupted;
    faults_delayed += o.faults_delayed;
    rma_retries += o.rma_retries;
    rma_op_timeouts += o.rma_op_timeouts;
    rma_domain_dead += o.rma_domain_dead;
    task_requeues += o.task_requeues;
    task_reissues += o.task_reissues;
    shm_fallbacks += o.shm_fallbacks;
    checksum_redos += o.checksum_redos;
    time_recovery += o.time_recovery;
    cache_hits += o.cache_hits;
    cache_joins += o.cache_joins;
    cache_misses += o.cache_misses;
    cache_bypasses += o.cache_bypasses;
    cache_evictions += o.cache_evictions;
    cache_rearms += o.cache_rearms;
    cache_refetches += o.cache_refetches;
    cache_bytes_saved += o.cache_bytes_saved;
    engine_tasks += o.engine_tasks;
    tasks_stolen += o.tasks_stolen;
    steals_denied += o.steals_denied;
    tasks_adopted += o.tasks_adopted;
    return *this;
  }
};

}  // namespace srumma
