#pragma once
// Structured event tracer: per-rank ring buffers of virtual-time spans,
// instants and counter samples.
//
// The post-hoc aggregates in TraceCounters answer "how much time went
// where"; this tracer answers "when, and in what order" — which task's get
// stalled behind the straggler node, how deep the in-flight pipeline
// actually ran, where a retry backoff landed relative to the dgemm it was
// hiding behind.  Every record is stamped with the issuing rank's virtual
// clock, so a trace is as deterministic as the run that produced it.
//
// Design constraints (see docs/OBSERVABILITY.md):
//   * zero perturbation — recording reads clocks, never advances them, so
//     an enabled tracer changes no modeled time;
//   * one branch when off — every hook in the runtime is guarded by a
//     single `if (Tracer* tr = team.tracer())` null test, the same pattern
//     as the RMA checker and the fault plane;
//   * rank-private storage — a rank only ever records its own events, so
//     the hot path takes no locks;
//   * bounded memory — each rank writes a fixed-capacity ring; overflow
//     overwrites the *oldest* events and is counted, never reallocates.
//
// Activation: programmatically via Team::enable_tracer(TracerConfig), or
// from the environment — SRUMMA_TRACE=<path> arms every Team in the
// process and writes a Chrome-trace JSON (see chrome_trace.hpp) for that
// team's events when the Team is destroyed (or flush_trace() is called).
// SRUMMA_TRACE_CAP overrides the per-rank ring capacity.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "vtime/clock.hpp"

namespace srumma::trace {

/// Event taxonomy.  CPU phases are strictly nested in virtual time on one
/// rank (Multiply > Task > Compute/Wait/RecoveryWait/Backoff/Redo, with
/// Barrier and Noise interleaving at the same level); comm phases
/// (Get/Put/Acc/Send/Recv) are in-flight intervals that overlap CPU phases
/// and each other, and export as async tracks.  The remaining phases are
/// instants.
enum class Phase : std::uint8_t {
  // -- CPU spans -------------------------------------------------------------
  Multiply,      ///< one srumma_multiply collective, entry to exit barrier
  Task,          ///< one pipeline task: operand wait + verify + dgemm
  Compute,       ///< a charged dgemm (any algorithm)
  Wait,          ///< clock blocked on a completion that delivered
  RecoveryWait,  ///< clock blocked on an attempt that failed / timed out
  Backoff,       ///< retry backoff pause before a re-issue
  Redo,          ///< checksum-verification refetch of a corrupt patch
  Barrier,       ///< time in a barrier beyond own arrival
  Noise,         ///< injected OS daemon preemption
  Steal,         ///< thief-side execution of a stolen task (fetch -> gemm
                 ///< -> handback publish; arg = victim's task index)
  Handback,      ///< owner-side commit of a stolen C tile (wait for the
                 ///< thief's publish + intra-domain copy-back)
  // -- in-flight communication spans ----------------------------------------
  Get,   ///< one-sided get, issue -> modeled completion
  Put,   ///< one-sided put
  Acc,   ///< one-sided accumulate
  Send,  ///< two-sided send, issue -> delivery
  Recv,  ///< two-sided receive, post -> delivery
  CacheRead,  ///< intra-domain copy out of the cooperative block cache
  // -- instants --------------------------------------------------------------
  TaskIssue,    ///< pipeline issued a task's fetches (arg = task index)
  TaskReady,    ///< engine task's operands all landed (arg = task index)
  TaskSteal,    ///< engine task claimed by an idle domain mate (arg = index)
  StealDenied,  ///< steal attempt whose admission test denied every
                ///< claimable task (arg = first denied victim's rank)
  TaskRearm,    ///< engine marked a task not-ready and re-armed its failed
                ///< operand fetches (the engine's requeue replacement)
  Requeue,      ///< task re-enqueued at the tail after operand failure
  ShmFallback,  ///< Direct -> Copy operand degradation (dead domain)
  Fault,        ///< transient transfer failure injected
  OpTimeout,    ///< attempt abandoned (or counted) by the per-op deadline
  Retry,        ///< re-issue performed by a wait (arg = prior attempts)
  Epoch,        ///< checker access epoch advanced (barrier entry)
  CacheHit,     ///< block-cache entry already ready at request time
  CacheJoin,    ///< joined a cache fetch still in flight (virtual time)
  CacheEvict,   ///< LRU eviction under capacity pressure
  CacheRearm,   ///< dirty (failed-fetch) entry re-armed by a waiter
  CacheRefetch,  ///< ready entry published later (virtual time) than the
                 ///< request — causality forbids sharing; own get issued
  DomainDead,    ///< handle drained with RmaStatus::DomainDead (arg = the
                 ///< declared-dead domain id)
  Adopt,         ///< survivor-side replay of one adopted task from the
                 ///< buddy replicas (span; arg = dead owner's rank id)
  // -- request plane (src/service; tracks are parent NODES, not ranks) -------
  Job,       ///< span: one serviced job, dispatch to completion (arg = id)
  JobWait,   ///< span: queue wait, admission to dispatch (arg = job id)
  JobArrive,  ///< instant: job accepted into the waiting queue (arg = id)
  JobReject,  ///< instant: job shed by admission control (arg = job id)
  JobRetry,   ///< instant: failed attempt re-dispatched on a fresh
              ///< sub-team (arg = job id)
};

[[nodiscard]] const char* phase_name(Phase p);

/// Per-rank counter tracks sampled on change.
enum class CounterId : std::uint8_t {
  InflightBytes,    ///< bytes of issued, not-yet-consumed one-sided ops
  InflightOps,      ///< queue depth of issued, not-yet-consumed ops
  RecoverySeconds,  ///< running TraceCounters::time_recovery
  CacheBytesSaved,  ///< running TraceCounters::cache_bytes_saved
};
inline constexpr int kNumCounters = 4;

[[nodiscard]] const char* counter_name(CounterId c);

enum class EvType : std::uint8_t { Span, Instant, Counter };

struct TraceEvent {
  double t0 = 0.0;     ///< virtual seconds (instants/counters: t0 == t1)
  double t1 = 0.0;
  double value = 0.0;  ///< counter sample value (Counter events only)
  std::uint64_t arg = 0;  ///< bytes / task index / attempt count
  Phase phase = Phase::Multiply;
  CounterId counter = CounterId::InflightBytes;
  EvType type = EvType::Span;
};

struct TracerConfig {
  /// Chrome-trace output path written by Team::flush_trace() / ~Team.
  /// Empty = record only (tests and programmatic consumers read events()).
  std::string path;
  /// Ring capacity in events per rank; oldest events are overwritten (and
  /// counted in dropped()) once a rank exceeds it.
  std::size_t ring_capacity = 1u << 16;

  /// SRUMMA_TRACE=<path> (+ optional SRUMMA_TRACE_CAP=<events>); nullopt
  /// when the environment does not ask for tracing.
  [[nodiscard]] static std::optional<TracerConfig> from_env();
};

/// Static per-rank track identity, stamped once at construction so the
/// exporter needs no machine model.
struct TrackInfo {
  int node = 0;
  int domain = 0;
};

class Tracer {
 public:
  Tracer(std::vector<TrackInfo> tracks, TracerConfig cfg);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] int ranks() const noexcept {
    return static_cast<int>(tracks_.size());
  }
  [[nodiscard]] const TracerConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const TrackInfo& track(int rank) const {
    return tracks_[checked(rank)].info;
  }

  // -- hot path (rank-private: callers record only their own rank) -----------

  void span(int rank, Phase ph, double t0, double t1, std::uint64_t arg = 0) {
    TraceEvent e;
    e.t0 = t0;
    e.t1 = t1;
    e.arg = arg;
    e.phase = ph;
    e.type = EvType::Span;
    push(rank, e);
  }

  void instant(int rank, Phase ph, double t, std::uint64_t arg = 0) {
    TraceEvent e;
    e.t0 = t;
    e.t1 = t;
    e.arg = arg;
    e.phase = ph;
    e.type = EvType::Instant;
    push(rank, e);
  }

  /// Adjust a per-rank running counter by `delta` and sample the new value.
  void counter_add(int rank, CounterId c, double t, double delta) {
    Track& tr = tracks_[checked(rank)];
    tr.counters[static_cast<std::size_t>(c)] += delta;
    sample(tr, rank, c, t);
  }

  /// Overwrite a per-rank counter and sample it.
  void counter_set(int rank, CounterId c, double t, double value) {
    Track& tr = tracks_[checked(rank)];
    tr.counters[static_cast<std::size_t>(c)] = value;
    sample(tr, rank, c, t);
  }

  [[nodiscard]] double counter_value(int rank, CounterId c) const {
    return tracks_[checked(rank)].counters[static_cast<std::size_t>(c)];
  }

  // -- inspection (call only when the recording ranks are quiescent) ---------

  /// Total record calls on this rank's track (including overwritten ones).
  [[nodiscard]] std::uint64_t recorded(int rank) const {
    return tracks_[checked(rank)].recorded;
  }
  /// Events lost to ring overflow (oldest-first overwrite policy).
  [[nodiscard]] std::uint64_t dropped(int rank) const {
    const Track& tr = tracks_[checked(rank)];
    return tr.recorded - tr.ring.size();
  }
  /// Surviving events in record order (oldest first, unwrapping the ring).
  [[nodiscard]] std::vector<TraceEvent> events(int rank) const;

  /// Drop all events and reset counters; track identities are kept.
  void clear();

 private:
  struct Track {
    std::vector<TraceEvent> ring;  // grows to cap_, then wraps at head
    std::size_t head = 0;          // next overwrite position once full
    std::uint64_t recorded = 0;
    double counters[kNumCounters] = {};
    TrackInfo info;
  };

  [[nodiscard]] std::size_t checked(int rank) const {
    SRUMMA_REQUIRE(rank >= 0 && rank < ranks(), "tracer: rank out of range");
    return static_cast<std::size_t>(rank);
  }

  void push(int rank, const TraceEvent& e) {
    Track& tr = tracks_[checked(rank)];
    ++tr.recorded;
    if (tr.ring.size() < cap_) {
      tr.ring.push_back(e);
    } else {
      tr.ring[tr.head] = e;
      tr.head = (tr.head + 1) % cap_;
    }
  }

  void sample(Track& tr, int rank, CounterId c, double t) {
    TraceEvent e;
    e.t0 = t;
    e.t1 = t;
    e.value = tr.counters[static_cast<std::size_t>(c)];
    e.counter = c;
    e.type = EvType::Counter;
    push(rank, e);
  }

  TracerConfig cfg_;
  std::size_t cap_;
  std::vector<Track> tracks_;
};

/// RAII span: stamps t0 at construction and records [t0, clock.now()] when
/// the scope exits (exception-safe).  Null tracer = fully inert.
class SpanGuard {
 public:
  SpanGuard(Tracer* tracer, int rank, Phase ph, VClock& clock,
            std::uint64_t arg = 0)
      : tracer_(tracer), clock_(&clock), rank_(rank), arg_(arg), phase_(ph) {
    if (tracer_ != nullptr) t0_ = clock_->now();
  }
  ~SpanGuard() {
    if (tracer_ != nullptr) tracer_->span(rank_, phase_, t0_, clock_->now(), arg_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Tracer* tracer_;
  VClock* clock_;
  int rank_;
  std::uint64_t arg_;
  Phase phase_;
  double t0_ = 0.0;
};

}  // namespace srumma::trace
