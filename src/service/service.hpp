#pragma once
// Multiply-as-a-service: a request plane serving concurrent GEMM job
// streams on one simulated machine (docs/SERVICE.md).
//
// Clients submit JobSpecs stamped with virtual arrival times (an open-loop
// arrival process: arrivals do not wait for completions).  The service is
// a discrete-event simulation over the same virtual-time substrate the
// rest of the repo runs on: it keeps a waiting queue under admission
// control, sizes a node lease for each job from its FLOP cost, carves a
// fresh SubTeam per dispatch (independent barriers/epochs/fault streams by
// construction — runtime/subteam.hpp), batches small multiplies onto one
// lease, and overlaps jobs in virtual time on disjoint leases.  Each
// dispatched multiply executes through the real srumma_multiply path, so
// a serviced job's C is bitwise identical to a standalone multiply of the
// same shape on a machine of the lease's size (run_standalone below is
// that reference, and tests/test_service.cpp holds the service to it).
//
// Scheduling policy (docs/SERVICE.md §5): effective priority = class +
// age/age_boost; the waiting queue is scanned in (effective priority desc,
// deadline asc, arrival asc) order and a job that does not fit the free
// nodes BLOCKS everything behind it — no backfill past a blocked job, so
// a small high-priority job can never starve behind a huge low-priority
// one, and a huge job can never be starved by a stream of small ones.

#include <cstdint>
#include <optional>
#include <queue>
#include <vector>

#include "core/options.hpp"
#include "machine/machine.hpp"
#include "rma/rma.hpp"
#include "runtime/subteam.hpp"
#include "service/job.hpp"
#include "trace/tracer.hpp"

namespace srumma::service {

/// Request-plane knobs, set in code (docs/SERVICE.md §6).
struct ServiceConfig {
  /// Admission control: maximum jobs *waiting* (running jobs excluded).
  /// A submit finding the queue full is shed with RejectReason::QueueFull.
  /// 0 = unbounded.
  int queue_cap = 64;
  /// Maximum concurrently running dispatches; 0 = limited only by nodes.
  int max_inflight = 0;
  /// Sub-team sizing divisor: a job gets clamp(ceil(flops / flops_per_node),
  /// 1, num_nodes) nodes.
  double flops_per_node = 2e8;
  /// Jobs under this FLOP cost are batchable: a contiguous scan-order run
  /// of them (up to batch_max) shares one lease, executing back to back.
  /// 0 disables batching.
  double batch_flops = 0.0;
  /// Maximum jobs per batch.
  int batch_max = 4;
  /// Retries after a failed attempt (each on a fresh sub-team; a
  /// config-installed fault plane is reseeded per attempt so the retry
  /// does not deterministically replay the fault).
  int retries = 1;
  /// Aging: +1 effective priority per this many virtual seconds waited;
  /// 0 disables aging.
  double age_boost = 0.0;
  /// Serial job-at-a-time baseline arm: every job gets the whole machine,
  /// one dispatch in flight, no batching — what the repo could do before
  /// the request plane existed.  bench_service measures the concurrent
  /// plane against this.
  bool serialize = false;

  /// Options forwarded to every srumma_multiply (ta/tb/alpha/beta are
  /// overridden per job from its spec).
  SrummaOptions multiply;
  /// RMA stack configuration for every sub-team (checker, cache, retry,
  /// fault plane; docs/SERVICE.md §6 on fault ids).
  RmaConfig rma;
};

/// Aggregates over one service run (docs/SERVICE.md §8); serialized as a
/// "srumma-bench-metrics/1" row via metrics_map (src/service/metrics.hpp).
struct ServiceMetrics {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;  ///< state Done
  std::uint64_t failed = 0;     ///< state Failed
  double window = 0.0;       ///< last completion - first arrival (virtual s)
  double jobs_per_s = 0.0;   ///< completed / window
  double p50_latency = 0.0;  ///< median completed-job latency (virtual s)
  double p99_latency = 0.0;  ///< 99th-percentile (nearest-rank)
  double mean_wait = 0.0;    ///< mean queue wait of completed jobs
  double utilization = 0.0;  ///< leased node-seconds / (window * num_nodes)
  std::uint64_t deadline_misses = 0;
  std::uint64_t batches = 0;  ///< dispatches carrying more than one job
  std::uint64_t retries = 0;  ///< failed attempts that were re-dispatched
};

class GemmService {
 public:
  explicit GemmService(MachineModel machine, ServiceConfig cfg = {});

  /// Submit one job at virtual time `arrival_vt` (non-decreasing across
  /// calls).  Advances the event loop to the arrival, then admits or sheds.
  SubmitResult submit(const JobSpec& spec, double arrival_vt);

  /// Run the event loop until every admitted job is Done or Failed.
  void drain();

  /// Stop admitting: every later submit is shed with ShuttingDown.
  void close() noexcept { closed_ = true; }

  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] const MachineModel& machine() const noexcept {
    return machine_;
  }
  [[nodiscard]] const ServiceConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] TeamPartition& partition() noexcept { return partition_; }

  /// Lifecycle record of one submission (ids start at 1).
  [[nodiscard]] const JobReport& report(std::uint64_t id) const;
  /// All reports in submission order.
  [[nodiscard]] std::vector<JobReport> reports() const;

  /// Aggregates over everything submitted so far (call after drain()).
  [[nodiscard]] ServiceMetrics metrics() const;

  /// Service-level tracer: one track per parent node, Job/JobWait spans and
  /// JobArrive/JobReject/JobRetry instants (record-only; write it with
  /// trace::write_chrome_trace_file).
  [[nodiscard]] trace::Tracer& tracer() noexcept { return tracer_; }

 private:
  struct Entry {
    JobSpec spec;
    JobReport rep;
  };
  struct Dispatch {
    double end_vt = 0.0;
    std::uint64_t seq = 0;  ///< dispatch order, tie-break for equal ends
    NodeLease lease;
  };
  struct DispatchLater {
    bool operator()(const Dispatch& a, const Dispatch& b) const {
      return a.end_vt != b.end_vt ? a.end_vt > b.end_vt : a.seq > b.seq;
    }
  };

  /// Process completions up to `vt`, dispatching as leases free.
  void advance_to(double vt);
  /// Dispatch every waiting job that fits, in policy order, until one
  /// blocks.  Each dispatch executes synchronously (virtual-time DES: the
  /// makespan is known the moment the sub-team run returns).
  void try_dispatch();
  /// Lease width for one job (docs/SERVICE.md §5).
  [[nodiscard]] int nodes_for(const JobSpec& spec) const;
  /// Run one lease's batch; fills reports and returns the lease-end time.
  double execute(double start_vt, const NodeLease& lease,
                 const std::vector<std::uint64_t>& members);
  /// One attempt of one job on a fresh SubTeam; throws on failure.
  MultiplyResult run_attempt(const NodeLease& lease, const JobSpec& spec,
                             int attempt, double* makespan);
  [[nodiscard]] Entry& entry(std::uint64_t id);
  [[nodiscard]] const Entry& entry(std::uint64_t id) const;

  MachineModel machine_;
  ServiceConfig cfg_;
  TeamPartition partition_;
  trace::Tracer tracer_;

  std::vector<Entry> jobs_;
  std::vector<std::uint64_t> waiting_;  ///< admitted, not yet dispatched
  std::priority_queue<Dispatch, std::vector<Dispatch>, DispatchLater>
      inflight_;
  std::uint64_t dispatch_seq_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t retries_ = 0;
  double leased_node_seconds_ = 0.0;
  double now_ = 0.0;
  double last_arrival_ = 0.0;
  bool closed_ = false;
};

/// The bitwise-identity reference (docs/SERVICE.md §2): run `spec` alone
/// on a fresh `nodes`-node carve of `machine` with the same multiply/RMA
/// configuration the service would use.  The serviced job and this call
/// execute the identical code path on behaviorally identical machines, so
/// real-data results match bit for bit.
MultiplyResult run_standalone(const MachineModel& machine, int nodes,
                              const JobSpec& spec,
                              const ServiceConfig& cfg = {});

}  // namespace srumma::service
