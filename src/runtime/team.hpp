#pragma once
// Rank/Team execution substrate.
//
// A Team turns one simulated machine into a set of concurrently executing
// ranks sharing the process address space — the stand-in for cluster
// processes — each with its own virtual clock and trace counters.
// Algorithms are written as a callable taking a Rank&, exactly like an SPMD
// main(); Team::run executes every rank (as fibers over a bounded worker
// pool by default, or as one OS thread per rank — see ExecMode and
// docs/HARNESS.md), waits for all of them, and propagates the first
// exception (waking any rank parked in a barrier so a failing run cannot
// deadlock the suite).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "fault/fault_plane.hpp"
#include "machine/machine.hpp"
#include "trace/tracer.hpp"
#include "vtime/clock.hpp"
#include "vtime/network.hpp"
#include "vtime/trace_counters.hpp"

namespace srumma {

class Team;

/// How Team::run executes rank bodies.
///  - Pooled: ranks are stackful fibers multiplexed over a bounded worker
///    pool (see runtime/fiber_exec.hpp); blocking points park by yielding.
///    The default — 1024+-rank teams cost no OS threads.
///  - Threads: one OS thread per rank; the original mode, kept as the
///    differential-testing oracle (tests assert both modes produce
///    bitwise-identical virtual-time results).
enum class ExecMode : std::uint8_t { Pooled, Threads };

/// Per-rank execution context handed to the SPMD body.
class Rank {
 public:
  Rank(Team* team, int id) : team_(team), id_(id) {}
  Rank(const Rank&) = delete;
  Rank& operator=(const Rank&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }
  [[nodiscard]] int node() const noexcept;
  [[nodiscard]] int domain() const noexcept;
  [[nodiscard]] Team& team() noexcept { return *team_; }
  [[nodiscard]] const MachineModel& machine() const noexcept;

  [[nodiscard]] VClock& clock() noexcept { return clock_; }
  [[nodiscard]] TraceCounters& trace() noexcept { return trace_; }

  /// The team's structured event tracer; nullptr when tracing is off (the
  /// common case — instrumentation sites null-test it, exactly like the
  /// RMA checker and the fault plane).
  [[nodiscard]] trace::Tracer* tracer() noexcept;

  /// Synchronize all ranks; every clock advances to the team max plus the
  /// modeled tree-barrier cost.
  void barrier();

  /// Charge one m x n x k block product against this rank's clock.
  /// `rate_factor` scales the dgemm rate (used for direct access to
  /// non-cacheable or remote NUMA memory).
  void charge_gemm(index_t m, index_t n, index_t k, double rate_factor = 1.0);

  /// Charge an arbitrary modeled duration (seconds).
  void charge_seconds(double dt);

  // -- used by Team::reset --------------------------------------------------
  void reset_noise();

 private:
  /// Consume CPU time, injecting deterministic daemon-preemption noise per
  /// the machine model (see MachineModel::noise_daemon_interval).
  void consume_cpu(double dt);

  Team* team_;
  int id_;
  VClock clock_;
  TraceCounters trace_;
  // OS-noise state: CPU consumed and the (jittered) next preemption point.
  double cpu_used_ = 0.0;
  double next_preempt_ = -1.0;  // lazily initialized
  std::uint64_t noise_seq_ = 0;
};

/// A set of ranks executing on one simulated machine.
class Team {
 public:
  /// One rank per CPU described by the machine model.
  explicit Team(MachineModel machine);
  /// Flushes the structured trace (see flush_trace) before teardown.
  ~Team();
  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  [[nodiscard]] int size() const noexcept { return size_; }
  [[nodiscard]] const MachineModel& machine() const noexcept { return machine_; }
  [[nodiscard]] NetworkState& network() noexcept { return net_; }
  [[nodiscard]] Rank& rank(int id);

  /// Run an SPMD body on every rank; blocks until all complete.  The first
  /// exception thrown by any rank is rethrown here after all ranks finish.
  /// A malformed SRUMMA_HARNESS_THREADS or SRUMMA_HARNESS_STACK_KB throws
  /// srumma::Error before any rank starts.
  void run(const std::function<void(Rank&)>& body);

  /// Select the execution mode (and, for Pooled, an optional worker-count
  /// override; workers <= 0 means "resolve from the environment").  Takes
  /// effect at the next run(); safe to change between runs.
  void set_execution(ExecMode mode, int workers = 0) noexcept {
    exec_mode_ = mode;
    exec_workers_ = workers;
  }
  [[nodiscard]] ExecMode execution() const noexcept { return exec_mode_; }

  /// Reset clocks, traces and network resources between experiments.
  void reset();

  /// Max virtual clock across ranks (the parallel makespan after a run that
  /// ends in a barrier).
  [[nodiscard]] double max_clock();

  /// Sum of all ranks' trace counters.
  [[nodiscard]] TraceCounters total_trace();

  /// Per-rank scratch slots used by collective algorithms to publish their
  /// local statistics; a slot is written by its owning rank before a
  /// barrier and read by everyone after it.
  ///
  /// Synchronization: the boards carry no locks of their own.  The
  /// write-before-barrier / read-after-barrier discipline is sound because
  /// barrier_wait establishes a happens-before edge between every rank's
  /// pre-barrier work and every rank's post-barrier work: each arrival
  /// acquires barrier_mu_, and each departure observes the generation bump
  /// published under that same mutex (verified race-free under
  /// -fsanitize=thread; see docs/CHECKING.md).  Readers must also finish
  /// before the *next* barrier, after which slots may be overwritten.
  [[nodiscard]] TraceCounters& trace_board(int rank);

  /// One team-wide slot for a reduction over the trace boards, written by
  /// a barrier's last arriver (barrier_wait's `on_last`) and read by every
  /// rank after that barrier and before the next.  collect_result sums
  /// the boards here once instead of once per rank.
  [[nodiscard]] TraceCounters& trace_sum() noexcept { return trace_sum_; }

  /// Per-rank double slot with the same write-before-barrier / read-after
  /// discipline (and the same barrier-provided synchronization) as
  /// trace_board; used for collective reductions over shared memory.
  [[nodiscard]] double& value_board(int rank);

  /// Fault-injection plane consulted by the communication layers; nullptr
  /// when injection is disabled (the common case — callers null-test it,
  /// exactly like the RMA checker).  Auto-installed from the SRUMMA_FAULT_*
  /// environment at construction; set_fault_plane overrides (nullptr
  /// disables).  One plane per team so the RMA and msg layers draw from the
  /// same seeded decision streams.
  [[nodiscard]] fault::FaultPlane* faults() noexcept { return faults_.get(); }
  void set_fault_plane(std::shared_ptr<fault::FaultPlane> plane) noexcept {
    faults_ = std::move(plane);
  }

  /// Register a condition variable that abort() must notify, so blocking
  /// waits in the comm layers (symmetric allocation, mailboxes) wake
  /// promptly when a peer rank throws instead of riding out their polling
  /// interval.  Returns a slot id for remove_abort_cv — an index into a
  /// free-listed registry, so registering/removing the O(ranks) mailbox
  /// cvs of a 4096-rank team costs O(1) each instead of an O(n) scan.
  /// The caller owns the cv and must remove it before the cv is destroyed.
  std::uint64_t add_abort_cv(std::condition_variable* cv);
  void remove_abort_cv(std::uint64_t id);

  /// Install the structured event tracer (src/trace/tracer.hpp); replaces
  /// any existing tracer.  Auto-installed from the SRUMMA_TRACE environment
  /// at construction.  reset() clears recorded events but keeps tracing
  /// enabled, so a trace covers the Team's most recent run.
  void enable_tracer(trace::TracerConfig cfg);
  [[nodiscard]] trace::Tracer* tracer_ptr() noexcept { return tracer_.get(); }

  /// Write the Chrome-trace JSON to the tracer's configured path (no-op
  /// when tracing is off, the path is empty, or no events were recorded).
  /// Called automatically from the destructor; call earlier to inspect the
  /// file while the Team is still alive.  Returns false on I/O failure.
  bool flush_trace();

  /// Register a callback invoked with the rank id every time that rank
  /// *enters* a barrier (before it blocks) — the epoch-advance hook the RMA
  /// checker uses to close an access epoch.  Returns an id for
  /// remove_epoch_observer.  When no observer is registered the barrier
  /// path pays one relaxed atomic load and nothing else.
  std::uint64_t add_epoch_observer(std::function<void(int)> fn);
  void remove_epoch_observer(std::uint64_t id);

  // -- used by Rank::barrier and the comm layers ----------------------------
  /// Rank::barrier.  A non-empty `on_last` is run by the last rank to
  /// arrive, under the barrier lock and before any rank leaves, so a
  /// team-wide reduction placed there runs exactly once per barrier and
  /// every rank sees its result on release (collect_result's use).  Every
  /// rank of one barrier must pass an equivalent hook.
  void barrier_wait(Rank& me, const std::function<void()>& on_last = {});
  [[nodiscard]] bool aborted() const noexcept {
    return aborted_.load(std::memory_order_acquire);
  }
  void abort() noexcept;

 private:
  MachineModel machine_;
  int size_;
  NetworkState net_;
  std::vector<std::unique_ptr<Rank>> ranks_;
  std::vector<TraceCounters> trace_board_;
  TraceCounters trace_sum_;
  std::vector<double> value_board_;
  std::unique_ptr<trace::Tracer> tracer_;
  std::shared_ptr<fault::FaultPlane> faults_;

  std::mutex abort_cv_mu_;
  // Index-keyed registry: slot id -> cv (nullptr = free slot, recycled via
  // the free list).  abort() walks the slots once; add/remove are O(1).
  std::vector<std::condition_variable*> abort_cv_slots_;
  std::vector<std::uint64_t> abort_cv_free_;

  ExecMode exec_mode_ = ExecMode::Pooled;
  int exec_workers_ = 0;

  void notify_epoch_observers(int rank);

  std::mutex observer_mu_;
  std::map<std::uint64_t, std::function<void(int)>> epoch_observers_;
  std::uint64_t next_observer_id_ = 1;
  std::atomic<bool> has_epoch_observers_{false};

  std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  int barrier_arrived_ = 0;
  std::uint64_t barrier_generation_ = 0;
  double barrier_max_ = 0.0;
  double barrier_release_ = 0.0;
  std::atomic<bool> aborted_{false};
};

}  // namespace srumma
