// The GEMM request plane (src/service, docs/SERVICE.md): admission
// control, priority scheduling without inversion, aging, batching,
// sub-team exhaustion, fault retries that never stall the queue, and the
// bitwise-identity contract against standalone multiplies.
//
// Injects its own fault planes and asserts clean-environment timings, so
// the suite carries the `faults` ctest label (it runs in the clean
// fault-matrix pass, not the env-injected one).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "fault/fault_plane.hpp"
#include "runtime/subteam.hpp"
#include "service/metrics.hpp"
#include "service/service.hpp"
#include "tests/helpers.hpp"
#include "util/rng.hpp"

namespace srumma::service {
namespace {

using srumma::testing::coords_matrix;
using srumma::testing::gemm_tolerance;
using srumma::testing::reference_gemm;

MachineModel quiet_machine(int nodes, int rpn) {
  return MachineModel::testing(nodes, rpn);  // no OS noise: deterministic
}

JobSpec phantom_job(index_t n, JobPriority prio = JobPriority::Normal) {
  JobSpec s;
  s.m = s.n = s.k = n;
  s.priority = prio;
  return s;
}

// -- TeamPartition / carve ---------------------------------------------------

TEST(Partition, FirstFitAcquireRelease) {
  TeamPartition part(4);
  EXPECT_EQ(part.total_nodes(), 4);
  EXPECT_EQ(part.free_nodes(), 4);
  auto a = part.acquire(2);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->first_node, 0);
  EXPECT_EQ(a->nodes, 2);
  auto b = part.acquire(2);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->first_node, 2);
  EXPECT_EQ(part.free_nodes(), 0);
  EXPECT_FALSE(part.acquire(1).has_value());
  part.release(*a);
  EXPECT_EQ(part.free_nodes(), 2);
  // First fit reuses the freed low run.
  auto c = part.acquire(1);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->first_node, 0);
  part.release(*b);
  part.release(*c);
  EXPECT_EQ(part.free_nodes(), 4);
}

TEST(Partition, LargestFreeRunTracksFragmentation) {
  TeamPartition part(5);
  auto a = part.acquire(1);  // node 0
  auto b = part.acquire(2);  // nodes 1-2
  ASSERT_TRUE(a && b);
  part.release(*a);  // free: {0}, {3,4}
  EXPECT_EQ(part.free_nodes(), 3);
  EXPECT_EQ(part.largest_free_run(), 2);
  // A 3-node lease cannot be satisfied contiguously despite 3 free nodes.
  EXPECT_FALSE(part.acquire(3).has_value());
  part.release(*b);
  EXPECT_EQ(part.largest_free_run(), 5);
}

TEST(Partition, ReleaseValidates) {
  TeamPartition part(2);
  EXPECT_THROW(part.release(NodeLease{0, 1}), Error);          // not leased
  EXPECT_THROW((void)part.acquire(3), Error);  // larger than machine
}

TEST(Machine, CarveKeepsPerNodeParameters) {
  const MachineModel m = MachineModel::linux_myrinet(8);
  const MachineModel sub = m.carve(3);
  EXPECT_EQ(sub.num_nodes, 3);
  EXPECT_EQ(sub.ranks_per_node, m.ranks_per_node);
  EXPECT_EQ(sub.net_bw, m.net_bw);
  EXPECT_EQ(sub.dgemm.peak_flops, m.dgemm.peak_flops);
  EXPECT_THROW(m.carve(0), Error);
  EXPECT_THROW(m.carve(9), Error);
}

TEST(SubTeam, RunsLikeStandaloneMachine) {
  const MachineModel parent = quiet_machine(4, 2);
  SubTeam st(parent, NodeLease{1, 2});
  EXPECT_EQ(st.ranks(), 4);
  double sub_clock = 0.0;
  st.team().run([](Rank& me) { me.barrier(); });
  sub_clock = st.team().max_clock();
  Team solo(parent.carve(2));
  solo.run([](Rank& me) { me.barrier(); });
  EXPECT_EQ(sub_clock, solo.max_clock());
}

// -- admission control -------------------------------------------------------

TEST(Service, QueueFullRejectsTyped) {
  ServiceConfig cfg;
  cfg.queue_cap = 2;
  cfg.flops_per_node = 1.0;  // every job wants the whole machine
  GemmService svc(quiet_machine(2, 2), cfg);
  const SubmitResult r1 = svc.submit(phantom_job(64), 0.0);  // dispatches
  const SubmitResult r2 = svc.submit(phantom_job(64), 0.0);  // waits
  const SubmitResult r3 = svc.submit(phantom_job(64), 0.0);  // waits
  const SubmitResult r4 = svc.submit(phantom_job(64), 0.0);  // shed
  EXPECT_TRUE(r1.accepted && r2.accepted && r3.accepted);
  EXPECT_FALSE(r4.accepted);
  EXPECT_EQ(r4.reject, RejectReason::QueueFull);
  EXPECT_EQ(svc.report(r4.id).state, JobState::Rejected);
  svc.drain();
  for (auto id : {r1.id, r2.id, r3.id}) {
    EXPECT_EQ(svc.report(id).state, JobState::Done);
  }
  const ServiceMetrics m = svc.metrics();
  EXPECT_EQ(m.submitted, 4u);
  EXPECT_EQ(m.accepted, 3u);
  EXPECT_EQ(m.rejected, 1u);
  EXPECT_EQ(m.completed, 3u);
}

TEST(Service, BadShapeRejectsTyped) {
  GemmService svc(quiet_machine(2, 2));
  JobSpec bad = phantom_job(0);
  const SubmitResult r = svc.submit(bad, 0.0);
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.reject, RejectReason::BadShape);
  // Real-data job with mismatched views.
  Matrix a(8, 8), b(8, 8), c(8, 4);  // c should be 8 x 8
  JobSpec real = phantom_job(8);
  real.phantom = false;
  real.a = a.view();
  real.b = b.view();
  real.c = c.view();
  EXPECT_EQ(svc.submit(real, 0.0).reject, RejectReason::BadShape);
  svc.drain();
}

TEST(Service, CloseShedsShuttingDown) {
  GemmService svc(quiet_machine(2, 2));
  EXPECT_TRUE(svc.submit(phantom_job(32), 0.0).accepted);
  svc.close();
  const SubmitResult r = svc.submit(phantom_job(32), 1.0);
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.reject, RejectReason::ShuttingDown);
  svc.drain();
}

// -- scheduling policy -------------------------------------------------------

TEST(Service, HighPriorityOvertakesEarlierLowPriority) {
  // A huge job owns the machine; a low-priority and (later) a
  // high-priority full-machine job queue behind it.  Despite arriving
  // second, the high-priority job must dispatch first.
  ServiceConfig cfg;
  cfg.flops_per_node = 1.0;  // all jobs full-machine: strict serialization
  GemmService svc(quiet_machine(4, 2), cfg);
  const auto huge = svc.submit(phantom_job(96, JobPriority::Low), 0.0);
  const auto low = svc.submit(phantom_job(48, JobPriority::Low), 1e-6);
  const auto high = svc.submit(phantom_job(48, JobPriority::High), 2e-6);
  svc.drain();
  const JobReport& rl = svc.report(low.id);
  const JobReport& rh = svc.report(high.id);
  EXPECT_EQ(svc.report(huge.id).state, JobState::Done);
  EXPECT_LT(rh.start_vt, rl.start_vt);
  EXPECT_GE(rl.start_vt, rh.completion_vt);
}

TEST(Service, NoBackfillPastBlockedHighPriorityJob) {
  // Job A (low, 2 nodes) runs; job B (high, 4 nodes) blocks on the 2 free
  // nodes; job C (low, 1 node) would fit the free nodes but must NOT jump
  // the blocked higher-priority head — that is the no-starvation rule.
  const MachineModel machine = quiet_machine(4, 2);
  const double unit = phantom_job(64).flops();  // 64^3 as the size quantum
  ServiceConfig cfg;
  cfg.flops_per_node = unit / 2 + 1;  // 64^3 -> 2 nodes
  GemmService svc(machine, cfg);
  JobSpec a = phantom_job(64, JobPriority::Low);       // 2 nodes
  JobSpec b = phantom_job(102, JobPriority::High);     // ~4.2 units -> 4 nodes
  JobSpec c = phantom_job(32, JobPriority::Low);       // 1 node
  const auto ra = svc.submit(a, 0.0);
  const auto rb = svc.submit(b, 1e-6);
  const auto rc = svc.submit(c, 2e-6);
  svc.drain();
  EXPECT_EQ(svc.report(rb.id).nodes, 4);
  EXPECT_EQ(svc.report(rc.id).nodes, 1);
  // B waits for A; C waits for B even though nodes sat free during A.
  EXPECT_GE(svc.report(rb.id).start_vt, svc.report(ra.id).completion_vt);
  EXPECT_GE(svc.report(rc.id).start_vt, svc.report(rb.id).completion_vt);
}

TEST(Service, AgingLiftsStarvedLowPriorityJobs) {
  // With age_boost, a Low job that has waited long enough outranks a
  // freshly arrived High job (Low + 3 boosts > High).
  ServiceConfig cfg;
  cfg.flops_per_node = 1.0;  // full-machine jobs: strict serialization
  GemmService svc(quiet_machine(2, 2), cfg);
  // Measure the huge job's service time first (deterministic model).
  const auto huge = svc.submit(phantom_job(96), 0.0);
  svc.drain();
  const double busy_until = svc.report(huge.id).completion_vt;
  ServiceConfig aged = cfg;
  aged.age_boost = busy_until / 4;  // the waiting Low job gains >= 3 classes
  GemmService svc2(quiet_machine(2, 2), aged);
  svc2.submit(phantom_job(96), 0.0);
  const auto low = svc2.submit(phantom_job(48, JobPriority::Low), 1e-6);
  const auto high =
      svc2.submit(phantom_job(48, JobPriority::High), busy_until * 0.99);
  svc2.drain();
  EXPECT_LT(svc2.report(low.id).start_vt, svc2.report(high.id).start_vt);
}

TEST(Service, SerializeArmRunsWholeMachineJobs) {
  ServiceConfig cfg;
  cfg.serialize = true;
  cfg.batch_flops = 1e18;  // ignored when serializing
  GemmService svc(quiet_machine(4, 2), cfg);
  const auto r1 = svc.submit(phantom_job(48), 0.0);
  const auto r2 = svc.submit(phantom_job(48), 0.0);
  svc.drain();
  EXPECT_EQ(svc.report(r1.id).nodes, 4);
  EXPECT_EQ(svc.report(r2.id).nodes, 4);
  EXPECT_EQ(svc.report(r2.id).batch_size, 1);
  EXPECT_GE(svc.report(r2.id).start_vt, svc.report(r1.id).completion_vt);
}

// -- concurrency & exhaustion ------------------------------------------------

TEST(Service, ExhaustionOverlapsJobsAndDrainsClean) {
  const double unit = phantom_job(64).flops();
  ServiceConfig cfg;
  cfg.flops_per_node = unit / 2 + 1;  // every job -> 2 of 4 nodes
  GemmService svc(quiet_machine(4, 2), cfg);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    const SubmitResult r = svc.submit(phantom_job(64), 0.0);
    ASSERT_TRUE(r.accepted);
    ids.push_back(r.id);
  }
  svc.drain();
  int started_at_zero = 0;
  double makespan = 0.0;
  double busy = 0.0;
  for (auto id : ids) {
    const JobReport& rep = svc.report(id);
    EXPECT_EQ(rep.state, JobState::Done);
    EXPECT_EQ(rep.nodes, 2);
    started_at_zero += rep.start_vt == 0.0 ? 1 : 0;
    makespan = std::max(makespan, rep.completion_vt);
    busy += rep.service();
  }
  // Two leases fit side by side, so exactly two jobs start at t=0 and the
  // eight-job makespan is roughly half the serial sum of service times.
  EXPECT_EQ(started_at_zero, 2);
  EXPECT_LT(makespan, busy);
  EXPECT_EQ(svc.partition().free_nodes(), 4);
  const ServiceMetrics m = svc.metrics();
  EXPECT_EQ(m.completed, 8u);
  EXPECT_GT(m.utilization, 0.5);
  EXPECT_LE(m.utilization, 1.0);
  EXPECT_GT(m.jobs_per_s, 0.0);
  EXPECT_GE(m.p99_latency, m.p50_latency);
  EXPECT_GT(m.p50_latency, 0.0);
}

TEST(Service, DeterministicReplay) {
  const auto run = [] {
    ServiceConfig cfg;
    cfg.flops_per_node = phantom_job(64).flops() / 2 + 1;
    GemmService svc(quiet_machine(4, 2), cfg);
    for (int i = 0; i < 6; ++i) {
      svc.submit(phantom_job(48 + 8 * (i % 3)),
                 static_cast<double>(i) * 1e-4);
    }
    svc.drain();
    return svc.reports();
  };
  const std::vector<JobReport> a = run();
  const std::vector<JobReport> b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start_vt, b[i].start_vt);
    EXPECT_EQ(a[i].completion_vt, b[i].completion_vt);
    EXPECT_EQ(a[i].result.elapsed, b[i].result.elapsed);
  }
}

// -- batching ----------------------------------------------------------------

TEST(Service, SmallJobsBatchOntoOneLease) {
  const double small = phantom_job(32).flops();
  ServiceConfig cfg;
  cfg.flops_per_node = 1.0;      // the huge job takes the whole machine
  cfg.batch_flops = small + 1;   // 32^3 jobs are batchable
  cfg.batch_max = 3;
  GemmService svc(quiet_machine(4, 2), cfg);
  const auto huge = svc.submit(phantom_job(96), 0.0);
  std::vector<std::uint64_t> smalls;
  for (int i = 0; i < 3; ++i) {
    smalls.push_back(svc.submit(phantom_job(32), 1e-6).id);
  }
  svc.drain();
  EXPECT_EQ(svc.report(huge.id).batch_size, 1);
  double prev_end = -1.0;
  for (auto id : smalls) {
    const JobReport& rep = svc.report(id);
    EXPECT_EQ(rep.state, JobState::Done);
    EXPECT_EQ(rep.batch_size, 3);
    if (prev_end >= 0) {
      EXPECT_EQ(rep.start_vt, prev_end);  // back to back on one lease
    }
    prev_end = rep.completion_vt;
  }
  EXPECT_EQ(svc.metrics().batches, 1u);
}

// -- bitwise identity --------------------------------------------------------

TEST(Service, ConcurrentJobsBitwiseIdenticalToStandalone) {
  const MachineModel machine = quiet_machine(4, 2);
  ServiceConfig cfg;
  cfg.flops_per_node = phantom_job(40).flops() + 1;  // mixed 1-2 node jobs
  GemmService svc(machine, cfg);

  struct Case {
    index_t m, n, k;
    blas::Trans ta, tb;
    double alpha, beta;
  };
  const Case cases[] = {
      {40, 36, 28, blas::Trans::No, blas::Trans::No, 1.0, 0.0},
      {32, 40, 24, blas::Trans::Yes, blas::Trans::No, 0.5, 0.0},
      {44, 28, 36, blas::Trans::No, blas::Trans::Yes, 1.0, 0.5},
      {48, 48, 48, blas::Trans::No, blas::Trans::No, 2.0, 1.0},
  };
  struct Bundle {
    Matrix a{1, 1}, b{1, 1}, c0{1, 1}, c_svc{1, 1};
    std::uint64_t id = 0;
    Case cs{};
  };
  std::vector<Bundle> jobs;
  std::uint64_t seed = 77;
  for (const Case& cs : cases) {
    Bundle j;
    j.cs = cs;
    const bool tra = cs.ta == blas::Trans::Yes;
    const bool trb = cs.tb == blas::Trans::Yes;
    j.a = Matrix(tra ? cs.k : cs.m, tra ? cs.m : cs.k);
    j.b = Matrix(trb ? cs.n : cs.k, trb ? cs.k : cs.n);
    j.c0 = Matrix(cs.m, cs.n);
    fill_random(j.a.view(), seed++);
    fill_random(j.b.view(), seed++);
    fill_random(j.c0.view(), seed++);
    j.c_svc = j.c0;  // serviced destination starts from the beta input
    jobs.push_back(std::move(j));
  }
  for (Bundle& j : jobs) {
    JobSpec s;
    s.m = j.cs.m;
    s.n = j.cs.n;
    s.k = j.cs.k;
    s.ta = j.cs.ta;
    s.tb = j.cs.tb;
    s.alpha = j.cs.alpha;
    s.beta = j.cs.beta;
    s.phantom = false;
    s.a = j.a.view();
    s.b = j.b.view();
    s.c = j.c_svc.view();
    const SubmitResult r = svc.submit(s, 0.0);
    ASSERT_TRUE(r.accepted);
    j.id = r.id;
  }
  svc.drain();
  for (Bundle& j : jobs) {
    const JobReport& rep = svc.report(j.id);
    ASSERT_EQ(rep.state, JobState::Done);
    // Standalone reference on a fresh machine of the lease's size.
    Matrix c_ref = j.c0;
    JobSpec s;
    s.m = j.cs.m;
    s.n = j.cs.n;
    s.k = j.cs.k;
    s.ta = j.cs.ta;
    s.tb = j.cs.tb;
    s.alpha = j.cs.alpha;
    s.beta = j.cs.beta;
    s.phantom = false;
    s.a = j.a.view();
    s.b = j.b.view();
    s.c = c_ref.view();
    run_standalone(machine, rep.nodes, s, cfg);
    EXPECT_EQ(max_abs_diff(j.c_svc.view(), c_ref.view()), 0.0)
        << "job " << j.id << " differs from its standalone run";
    // And both agree with the dense reference within tolerance.
    Matrix c_naive = j.c0;
    reference_gemm(j.cs.ta, j.cs.tb, j.cs.alpha, j.a, j.b, j.cs.beta, c_naive);
    EXPECT_LE(max_abs_diff(j.c_svc.view(), c_naive.view()),
              gemm_tolerance(j.cs.k));
  }
}

// -- faults ------------------------------------------------------------------

TEST(Service, FaultyJobFailsTypedWithoutStallingQueue) {
  // fail_rate=1.0 scoped to rank 2: only sub-teams of >= 2 nodes contain
  // that rank, so the big job deterministically exhausts its retries on
  // every (reseeded) attempt while 1-node jobs sail through — the queue
  // must keep flowing around the failing job.
  const MachineModel machine = quiet_machine(4, 2);
  const double unit = phantom_job(64).flops();
  ServiceConfig cfg;
  cfg.flops_per_node = unit / 2 + 1;  // 64^3 -> 2 nodes; 32^3 -> 1 node
  cfg.retries = 2;
  fault::FaultConfig faults;
  faults.fail_rate = 1.0;
  faults.only_rank = 2;
  cfg.rma.faults = faults;
  GemmService svc(machine, cfg);
  const auto doomed = svc.submit(phantom_job(64), 0.0);
  std::vector<std::uint64_t> fine;
  for (int i = 0; i < 3; ++i) {
    fine.push_back(svc.submit(phantom_job(32), 0.0).id);
  }
  svc.drain();
  const JobReport& bad = svc.report(doomed.id);
  EXPECT_EQ(bad.state, JobState::Failed);
  EXPECT_EQ(bad.attempts, 3);  // 1 + retries, each on a fresh sub-team
  for (auto id : fine) EXPECT_EQ(svc.report(id).state, JobState::Done);
  const ServiceMetrics m = svc.metrics();
  EXPECT_EQ(m.failed, 1u);
  EXPECT_EQ(m.completed, 3u);
  EXPECT_EQ(m.retries, 2u);
  // The retry instants landed in the service trace.
  int job_retries = 0;
  for (int node = 0; node < machine.num_nodes; ++node) {
    for (const trace::TraceEvent& e : svc.tracer().events(node)) {
      job_retries += e.phase == trace::Phase::JobRetry ? 1 : 0;
    }
  }
  EXPECT_EQ(job_retries, 2);
}

TEST(Service, RejectsFaultIdsOutsideTheWholeMachine) {
  // Ids are checked against the whole machine up front; within it, a
  // sub-team that lacks the scoped rank simply injects nothing (above).
  ServiceConfig cfg;
  fault::FaultConfig faults;
  faults.fail_rate = 1.0;
  faults.only_rank = 8;  // quiet_machine(4, 2) has ranks 0..7
  cfg.rma.faults = faults;
  EXPECT_THROW(GemmService(quiet_machine(4, 2), cfg), Error);
  cfg.rma.faults->only_rank = 7;
  EXPECT_NO_THROW(GemmService(quiet_machine(4, 2), cfg));
}

TEST(Service, TransparentRmaRetriesDegradeWithoutJobFailures) {
  // Low-rate transient failures with a raised attempt budget: the RMA
  // layer's own retries absorb every fault, so jobs complete first-try
  // while the counters record the degradation.
  ServiceConfig cfg;
  cfg.flops_per_node = phantom_job(64).flops() / 2 + 1;  // 64^3 -> 2 nodes
  cfg.multiply.k_chunk = 8;   // many small tasks -> many fault draws
  cfg.multiply.c_chunk = 16;
  fault::FaultConfig faults;
  faults.fail_rate = 0.2;
  faults.delay_rate = 0.1;
  cfg.rma.faults = faults;
  RetryPolicy retry;
  retry.max_attempts = 20;
  cfg.rma.retry = retry;
  GemmService svc(quiet_machine(4, 2), cfg);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(svc.submit(phantom_job(64), 0.0).id);
  }
  svc.drain();
  std::uint64_t rma_retries = 0;
  for (auto id : ids) {
    const JobReport& rep = svc.report(id);
    EXPECT_EQ(rep.state, JobState::Done);
    EXPECT_EQ(rep.attempts, 1);
    rma_retries += rep.result.trace.rma_retries;
  }
  EXPECT_GT(rma_retries, 0u);
  EXPECT_EQ(svc.metrics().retries, 0u);
}

// -- deadlines, trace, metrics serialization ---------------------------------

TEST(Service, DeadlineHintsReportedNotEnforced) {
  ServiceConfig cfg;
  cfg.flops_per_node = 1.0;
  GemmService svc(quiet_machine(2, 2), cfg);
  JobSpec tight = phantom_job(64);
  tight.deadline_hint = 1e-9;  // unmeetable, but never a reject cause
  JobSpec slack = phantom_job(64);
  slack.deadline_hint = 1e9;
  const auto r1 = svc.submit(tight, 0.0);
  const auto r2 = svc.submit(slack, 0.0);
  svc.drain();
  EXPECT_EQ(svc.report(r1.id).state, JobState::Done);
  EXPECT_FALSE(svc.report(r1.id).deadline_met);
  EXPECT_TRUE(svc.report(r2.id).deadline_met);
  EXPECT_EQ(svc.metrics().deadline_misses, 1u);
}

TEST(Service, TraceCarriesJobSpansAndInstants) {
  ServiceConfig cfg;
  cfg.flops_per_node = phantom_job(48).flops() + 1;
  GemmService svc(quiet_machine(2, 2), cfg);
  const auto r1 = svc.submit(phantom_job(48), 0.0);
  const auto r2 = svc.submit(phantom_job(48), 1e-5);
  svc.drain();
  int job_spans = 0;
  int wait_spans = 0;
  int arrivals = 0;
  for (int node = 0; node < 2; ++node) {
    for (const trace::TraceEvent& e : svc.tracer().events(node)) {
      if (e.phase == trace::Phase::Job && e.type == trace::EvType::Span) {
        ++job_spans;
        const JobReport& rep = svc.report(e.arg);
        EXPECT_EQ(e.t0, rep.start_vt);
        EXPECT_EQ(e.t1, rep.completion_vt);
      }
      wait_spans += e.phase == trace::Phase::JobWait ? 1 : 0;
      arrivals += e.phase == trace::Phase::JobArrive ? 1 : 0;
    }
  }
  EXPECT_EQ(job_spans, 2);
  EXPECT_EQ(wait_spans, 2);
  EXPECT_EQ(arrivals, 2);
  (void)r1;
  (void)r2;
}

TEST(Service, MetricsJsonSerializes) {
  ServiceMetrics m;
  m.submitted = 3;
  m.accepted = 2;
  m.completed = 2;
  m.window = 2.0;
  m.jobs_per_s = 1.0;
  m.p50_latency = 0.5;
  m.p99_latency = 0.9;
  m.utilization = 0.75;
  trace::MetricsLog log("service");
  log.add_metrics("concurrent", metrics_map(m), {{"jobs", 3.0}}, 0.5,
                  m.window);
  const std::string doc = log.json();
  EXPECT_NE(doc.find("\"schema\":\"srumma-bench-metrics/1\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"jobs_per_s\":1"), std::string::npos);
  EXPECT_NE(doc.find("\"latency_p99_s\":0.9"), std::string::npos);
  EXPECT_NE(doc.find("\"utilization\":0.75"), std::string::npos);
  EXPECT_NE(doc.find("\"wall_seconds\":0.5"), std::string::npos);
  EXPECT_NE(doc.find("\"wall_per_virtual_second\":0.25"), std::string::npos);
}

}  // namespace
}  // namespace srumma::service
