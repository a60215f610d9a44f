#pragma once
// Per-rank instrumentation counters, in seconds, bytes or counts.  Every
// rank accumulates them as it executes; the trace module aggregates them
// into the per-experiment reports.
//
// SRUMMA_TRACE_COUNTERS is the one list of fields: X(type, name, agg) in
// declaration order.  The struct, operator+=, trace_delta (trace/report.cpp)
// and counters_json (trace/metrics_json.cpp) are generated from it, so
// adding a counter takes one line in the list (docs/OBSERVABILITY.md).
// Sum counters add across ranks and difference across run snapshots; Max
// is a high-water mark: MAX across ranks, the end value across snapshots.

#include <algorithm>
#include <cstdint>

// clang-format off
#define SRUMMA_TRACE_COUNTERS(X)                                               \
  /* -- computation ---------------------------------------------------- */    \
  X(double, time_compute, Sum)         /* modeled dgemm time */                \
  X(std::uint64_t, gemm_calls, Sum)                                            \
  X(double, flops, Sum)                                                        \
  /* -- communication -------------------------------------------------- */    \
  X(double, time_comm, Sum)            /* modeled transfer durations issued */ \
  /* Clock actually lost blocking on completions; equals the traced Wait +     \
     RecoveryWait span totals (see trace/tracer.hpp). */                       \
  X(double, time_wait, Sum)                                                    \
  X(double, time_noise, Sum)           /* OS daemon-preemption time */         \
  X(std::uint64_t, bytes_shm, Sum)     /* intra-domain copy traffic */         \
  X(std::uint64_t, bytes_remote, Sum)  /* inter-node RMA traffic */            \
  X(std::uint64_t, bytes_msg, Sum)     /* two-sided (MPI-model) traffic */     \
  X(std::uint64_t, gets, Sum)                                                  \
  X(std::uint64_t, puts, Sum)          /* includes accumulates */              \
  X(std::uint64_t, sends, Sum)                                                 \
  X(std::uint64_t, recvs, Sum)                                                 \
  X(std::uint64_t, direct_tasks, Sum)  /* block products fed views in place */ \
  X(std::uint64_t, copy_tasks, Sum)    /* block products fed copied buffers */ \
  /* Algorithm-internal buffer memory on one rank (communication panels,       \
     circulation temps, redistribution temporaries — not the matrices          \
     themselves).  A high-water mark: each top-level algorithm                 \
     max-accumulates its own footprint, so a later smaller run never erases    \
     the peak (Team::reset clears it between experiments).  Team totals        \
     report the worst rank's footprint. */                                     \
  X(std::uint64_t, buffer_bytes_peak, Max)                                     \
  /* -- fault injection & recovery (src/fault, RetryPolicy, pipeline) --- */   \
  X(std::uint64_t, faults_injected, Sum)  /* transient failures injected */    \
  X(std::uint64_t, faults_corrupted, Sum)  /* payload corruptions applied */   \
  X(std::uint64_t, faults_delayed, Sum)  /* straggler-op delays applied */     \
  X(std::uint64_t, rma_retries, Sum)   /* re-issues performed by waits */      \
  X(std::uint64_t, rma_op_timeouts, Sum)  /* attempts hit op_timeout */        \
  /* Handles drained with the terminal RmaStatus::DomainDead after their       \
     target's shared-memory domain fail-stopped.  Counted separately from      \
     rma_op_timeouts: "peer gone" is not "peer slow". */                       \
  X(std::uint64_t, rma_domain_dead, Sum)                                       \
  /* Re-arm rounds: a task whose operand exhausted its RMA retries             \
     re-acquires that operand in place (every executor, the recovery           \
     adopter's seeds and stores, and the buddy-replication gets); one          \
     TaskRearm instant each.  Keeps the classification identity exact          \
     under faults:                                                             \
       copy_tasks + direct_tasks == block products executed                    \
     — re-acquires inflate task_reissues, never the class counters. */         \
  X(std::uint64_t, task_reissues, Sum)                                         \
  X(std::uint64_t, shm_fallbacks, Sum)  /* Direct -> Copy degradations */      \
  X(std::uint64_t, checksum_redos, Sum)  /* patches refetched (corruption) */  \
  /* Virtual time sunk into recovery: waits on failed attempts, retry          \
     backoff, checksum verification refetches and redone block products;       \
     equals the traced RecoveryWait + Backoff + Redo span totals. */           \
  X(double, time_recovery, Sum)                                                \
  /* -- cooperative block cache (src/cache, docs/CACHE.md) -------------- */   \
  X(std::uint64_t, cache_hits, Sum)    /* entry ready at request time */       \
  X(std::uint64_t, cache_joins, Sum)   /* joined an in-flight fetch */         \
  X(std::uint64_t, cache_misses, Sum)  /* became the single-flight fetcher */  \
  /* capacity/epoch made caching impossible */                                 \
  X(std::uint64_t, cache_bypasses, Sum)                                        \
  X(std::uint64_t, cache_evictions, Sum)  /* LRU evictions under pressure */   \
  X(std::uint64_t, cache_rearms, Sum)  /* dirty entries re-armed by waiters */ \
  /* Ready entries whose publishing get was issued AFTER the requester's       \
     virtual now — on a real machine the requester would have fetched first,   \
     so sharing would time-travel; it fetches itself instead. */               \
  X(std::uint64_t, cache_refetches, Sum)                                       \
  /* Modeled inter-node bytes NOT transferred because a domain mate's fetch    \
     was shared — the cache's headline gauge. */                               \
  X(std::uint64_t, cache_bytes_saved, Sum)                                     \
  /* -- dependency-driven task engine (src/engine, docs/ENGINE.md) ------- */  \
  /* Block products a rank executed for its own C tiles through the engine.    \
     Engine runs reconcile exactly:                                            \
       engine_tasks + tasks_stolen == copy_tasks + direct_tasks. */            \
  X(std::uint64_t, engine_tasks, Sum)                                          \
  /* Block products executed by an idle domain mate on the owner's behalf,     \
     counted on the thief at handback publish; the owner still commits the     \
     C tile, so every stolen task also appears in exactly one of               \
     copy_tasks/direct_tasks (again on the thief). */                          \
  X(std::uint64_t, tasks_stolen, Sum)                                          \
  /* try_steal calls that saw claimable work on a mate's board but whose       \
     virtual-time admission test denied every candidate (docs/ENGINE.md        \
     §3) — the steals that would have stalled their victims. */                \
  X(std::uint64_t, steals_denied, Sum)                                         \
  /* Block products replayed by a survivor on behalf of a permanently dead     \
     domain's ranks, from the buddy replicas into scratch; each also appears   \
     in exactly one of copy_tasks/direct_tasks and in gemm_calls, so           \
     recovery runs reconcile as                                                \
       engine_tasks + tasks_stolen + tasks_adopted                             \
         == copy_tasks + direct_tasks == gemm_calls. */                        \
  X(std::uint64_t, tasks_adopted, Sum)
// clang-format on

namespace srumma {

/// How a counter combines across ranks and across run snapshots.
enum class CounterAgg { Sum, Max };

struct TraceCounters {
#define SRUMMA_COUNTER_FIELD(type, name, agg) type name = 0;
  SRUMMA_TRACE_COUNTERS(SRUMMA_COUNTER_FIELD)
#undef SRUMMA_COUNTER_FIELD

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

  /// Team aggregation: Sum fields add, Max fields keep the larger value.
  TraceCounters& operator+=(const TraceCounters& o) {
#define SRUMMA_COUNTER_ADD(type, name, agg)                        \
  name = CounterAgg::agg == CounterAgg::Sum ? name + o.name        \
                                            : std::max(name, o.name);
    SRUMMA_TRACE_COUNTERS(SRUMMA_COUNTER_ADD)
#undef SRUMMA_COUNTER_ADD
    return *this;
  }
};

}  // namespace srumma
