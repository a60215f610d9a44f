// Tests for the Section 2.1 analytic model and the trace/report helpers.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <vector>

#include "perf/model.hpp"
#include "trace/profile.hpp"
#include "trace/report.hpp"

namespace srumma {
namespace {

perf::CostParams sample_params() {
  // 1 GFLOP/s-ish machine, 250 MB/s network, 10 us latency.
  return perf::CostParams{2e-9, 3.2e-8, 1e-5};
}

TEST(PerfModel, SequentialTimeIsCubic) {
  const auto p = sample_params();
  EXPECT_DOUBLE_EQ(perf::t_seq(100, p), 1e6 * p.t_ma);
  EXPECT_DOUBLE_EQ(perf::t_seq(200, p) / perf::t_seq(100, p), 8.0);
}

TEST(PerfModel, SingleProcessorDegeneratesToSerialPlusLatency) {
  const auto p = sample_params();
  EXPECT_NEAR(perf::t_par_rma(100, 1, p),
              perf::t_seq(100, p) + 2 * 100.0 * 100.0 * p.t_w + 2 * p.t_s,
              1e-12);
}

TEST(PerfModel, ComputeTermScalesInverselyWithP) {
  const auto p = sample_params();
  const double t4 = perf::t_par_rma_overlap(1000, 4, p, 0.0);
  const double t16 = perf::t_par_rma_overlap(1000, 16, p, 0.0);
  // omega = 0: only compute + latency terms remain; latency is tiny here.
  EXPECT_NEAR(t4 / t16, 4.0, 0.01);
}

TEST(PerfModel, FullOverlapReducesToComputePlusLatency) {
  const auto p = sample_params();
  const double n = 2000, np = 16;
  EXPECT_NEAR(perf::t_par_rma_overlap(n, np, p, 0.0),
              n * n * n * p.t_ma / np + 2 * p.t_s * std::sqrt(np), 1e-12);
  // Eq. (1) == eq. (3) at omega = 1.
  EXPECT_DOUBLE_EQ(perf::t_par_rma(n, np, p),
                   perf::t_par_rma_overlap(n, np, p, 1.0));
}

TEST(PerfModel, OverlapMonotone) {
  const auto p = sample_params();
  double prev = 0.0;
  for (double w : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const double t = perf::t_par_rma_overlap(500, 64, p, w);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(PerfModel, EfficiencyPropertiesMatchThePaper) {
  const auto p = sample_params();
  // Efficiency falls with P at fixed N, rises with N at fixed P.
  EXPECT_GT(perf::efficiency(1000, 4, p), perf::efficiency(1000, 64, p));
  EXPECT_GT(perf::efficiency(4000, 64, p), perf::efficiency(500, 64, p));
  EXPECT_LE(perf::efficiency(1e9, 4, p), 1.0);
}

TEST(PerfModel, IsoefficiencyIsSqrtP) {
  const auto p = sample_params();
  // Holding eta fixed, N must grow like sqrt(P): N(4P)/N(P) = 2, so the
  // work N^3 grows like P^1.5 — the paper's O(P^{3/2}) isoefficiency.
  const double n1 = perf::isoefficiency_n(16, 0.8, p);
  const double n2 = perf::isoefficiency_n(64, 0.8, p);
  EXPECT_NEAR(n2 / n1, 2.0, 1e-9);
  // And the returned N really does produce the requested efficiency.
  EXPECT_NEAR(perf::efficiency(n1, 16, p), 0.8, 1e-9);
}

TEST(PerfModel, ParamsFromMachineAreConsistent) {
  const MachineModel m = MachineModel::linux_myrinet(4);
  const auto p = perf::params_from_machine(m, 1000);
  EXPECT_NEAR(p.t_w, 8.0 / m.net_bw, 1e-15);
  EXPECT_DOUBLE_EQ(p.t_s, m.net_latency);
  EXPECT_NEAR(p.t_ma, 2.0 / m.dgemm.rate(1000, 1000, 1000), 1e-18);
}

TEST(PerfModel, InvalidInputsThrow) {
  const auto p = sample_params();
  EXPECT_THROW((void)perf::t_par_rma(0, 4, p), Error);
  EXPECT_THROW((void)perf::t_par_rma_overlap(10, 4, p, 1.5), Error);
  EXPECT_THROW((void)perf::efficiency(10, 0, p), Error);
  EXPECT_THROW((void)perf::isoefficiency_n(4, 1.0, p), Error);
}

TEST(TraceReport, DeltaSubtractsFieldwise) {
  TraceCounters start, end;
  start.time_compute = 1.0;
  start.gets = 2;
  end.time_compute = 3.5;
  end.gets = 7;
  end.bytes_remote = 100;
  const TraceCounters d = trace_delta(end, start);
  EXPECT_DOUBLE_EQ(d.time_compute, 2.5);
  EXPECT_EQ(d.gets, 5u);
  EXPECT_EQ(d.bytes_remote, 100u);
}

// Field-by-field bit equality (doubles compared as bit patterns).
bool bitwise_equal(const TraceCounters& x, const TraceCounters& y) {
  bool eq = true;
#define SRUMMA_COUNTER_BITS(type, f, agg) \
  eq = eq && std::memcmp(&x.f, &y.f, sizeof(type)) == 0;
  SRUMMA_TRACE_COUNTERS(SRUMMA_COUNTER_BITS)
#undef SRUMMA_COUNTER_BITS
  return eq;
}

TEST(TraceReport, CollectResultAggregatesAcrossRanks) {
  Team team(MachineModel::testing(2, 2));
  MultiplyResult out;
  team.run([&](Rank& me) {
    me.barrier();
    const double t0 = me.clock().now();
    const TraceCounters start = me.trace();
    me.charge_gemm(10, 10, 10);
    MultiplyResult r = collect_result(me, t0, start, 4 * 2.0 * 1000.0);
    if (me.id() == 0) out = r;
  });
  EXPECT_EQ(out.trace.gemm_calls, 4u);
  EXPECT_GT(out.elapsed, 0.0);
  EXPECT_GT(out.gflops, 0.0);

  // 96 ranks on three workers, over several multiplies: every rank
  // returns, bit for bit, the boards summed in rank order.  The deltas
  // differ per rank and per round in every kind of field, so a sum in any
  // other order, or a board read before its rank wrote it, shows.
  Team big(MachineModel::testing(32, 3));
  big.set_execution(ExecMode::Pooled, 3);
  const int n = big.size();
  constexpr int kRounds = 4;
  std::vector<MultiplyResult> got(static_cast<std::size_t>(n * kRounds));
  std::vector<TraceCounters> want(kRounds);
  big.run([&](Rank& me) {
    for (int round = 0; round < kRounds; ++round) {
      me.barrier();
      const double t0 = me.clock().now();
      const TraceCounters start = me.trace();
      me.charge_gemm(8 + me.id(), 3 + round, 5 + me.id() % 7);
      me.trace().time_wait += 1e-3 / (1 + me.id() + round);
      me.trace().gets += static_cast<std::uint64_t>(me.id() * round);
      me.trace().buffer_bytes_peak = static_cast<std::uint64_t>(
          (me.id() * 37 + round * 11) % 101);
      const std::size_t slot = static_cast<std::size_t>(round * n + me.id());
      got[slot] = collect_result(me, t0, start, 1e6);
      // The boards hold this round's deltas until the next round's
      // collect_result: rank 0 sums them in rank order for the check.
      if (me.id() == 0) {
        TraceCounters sum;
        for (int r = 0; r < n; ++r) sum += big.trace_board(r);
        want[static_cast<std::size_t>(round)] = sum;
        TraceCounters reversed;
        for (int r = n - 1; r >= 0; --r) reversed += big.trace_board(r);
        EXPECT_FALSE(bitwise_equal(sum, reversed))
            << "round " << round << ": the deltas are not order-sensitive";
      }
      me.barrier();
    }
  });
  for (int round = 0; round < kRounds; ++round) {
    const TraceCounters& w = want[static_cast<std::size_t>(round)];
    EXPECT_EQ(w.gemm_calls, static_cast<std::uint64_t>(n));
    for (int r = 0; r < n; ++r) {
      const MultiplyResult& g = got[static_cast<std::size_t>(round * n + r)];
      EXPECT_TRUE(bitwise_equal(g.trace, w)) << "round " << round << " rank "
                                              << r;
      EXPECT_EQ(g.elapsed, got[static_cast<std::size_t>(round * n)].elapsed);
    }
  }
}

TEST(TraceReport, DescribeMentionsKeyNumbers) {
  MultiplyResult r;
  r.gflops = 12.34;
  r.elapsed = 0.5;
  r.overlap = 0.9;
  const std::string s = describe(r);
  EXPECT_NE(s.find("12.34"), std::string::npos);
  EXPECT_NE(s.find("90.00%"), std::string::npos);
}

TEST(TraceProfile, ReportsRanksAndResources) {
  Team team(MachineModel::testing(2, 2));
  team.run([&](Rank& me) {
    me.charge_gemm(64, 64, 64);
    if (me.id() == 0) {
      // Book some NIC time so the resource section is non-empty.
      team.network().nic_out(0).book(0.0, 1e-3);
      team.network().domain_mem(0).book(0.0, 5e-4);
    }
    me.barrier();
  });
  std::ostringstream os;
  print_profile(os, team);
  const std::string s = os.str();
  EXPECT_NE(s.find("rank profile"), std::string::npos);
  EXPECT_NE(s.find("resource utilization"), std::string::npos);
  EXPECT_NE(s.find("node 0 NIC out"), std::string::npos);
  EXPECT_NE(s.find("domain 0 memory"), std::string::npos);
}

TEST(TraceProfile, CapsRowsOnBigTeams) {
  Team team(MachineModel::sgi_altix(64));
  team.run([](Rank& me) { me.charge_gemm(8, 8, 8); });
  std::ostringstream os;
  print_profile(os, team, 8);
  // Header + separator + at most 8 rank rows.
  EXPECT_LT(os.str().size(), 2000u);
}

}  // namespace
}  // namespace srumma
