// Tests for the Team/Rank substrate: SPMD launch, virtual-time barriers,
// gemm charging, failure propagation, and the trace board.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "msg/comm.hpp"
#include "rma/rma.hpp"
#include "runtime/fiber_exec.hpp"
#include "runtime/team.hpp"
#include "util/error.hpp"

namespace srumma {
namespace {

TEST(Team, RunsEveryRankOnce) {
  Team team(MachineModel::testing(2, 3));
  std::atomic<int> count{0};
  std::atomic<int> id_sum{0};
  team.run([&](Rank& me) {
    count.fetch_add(1);
    id_sum.fetch_add(me.id());
  });
  EXPECT_EQ(count.load(), 6);
  EXPECT_EQ(id_sum.load(), 0 + 1 + 2 + 3 + 4 + 5);
}

TEST(Team, RankTopologyAccessors) {
  Team team(MachineModel::testing(2, 2));
  team.run([&](Rank& me) {
    EXPECT_EQ(me.node(), me.id() / 2);
    EXPECT_EQ(me.domain(), me.node());
    EXPECT_EQ(&me.team(), &team);
  });
}

TEST(Team, BarrierEqualizesClocksToMaxPlusCost) {
  Team team(MachineModel::testing(4, 1));
  const double hop = team.machine().barrier_hop_latency;
  team.run([&](Rank& me) {
    me.charge_seconds(static_cast<double>(me.id()) * 0.5);
    me.barrier();
    // max clock was 1.5 (rank 3); tree depth ceil(log2 4) = 2 hops.
    EXPECT_NEAR(me.clock().now(), 1.5 + 2 * hop, 1e-12);
  });
}

TEST(Team, RepeatedBarriersStayConsistent) {
  Team team(MachineModel::testing(3, 1));
  team.run([&](Rank& me) {
    for (int i = 0; i < 50; ++i) {
      me.charge_seconds(me.id() == i % 3 ? 1e-3 : 0.0);
      me.barrier();
    }
  });
  // All clocks identical after a barrier.
  const double t0 = team.rank(0).clock().now();
  for (int r = 1; r < team.size(); ++r)
    EXPECT_DOUBLE_EQ(team.rank(r).clock().now(), t0);
}

TEST(Team, ChargeGemmAdvancesClockAndTrace) {
  Team team(MachineModel::testing(1, 1));
  team.run([&](Rank& me) {
    me.charge_gemm(100, 100, 100);
    const double expect = team.machine().dgemm.time(100, 100, 100);
    EXPECT_DOUBLE_EQ(me.clock().now(), expect);
    EXPECT_DOUBLE_EQ(me.trace().time_compute, expect);
    EXPECT_EQ(me.trace().gemm_calls, 1u);
    EXPECT_DOUBLE_EQ(me.trace().flops, 2e6);
  });
}

TEST(Team, ChargeGemmRateFactorSlowsDown) {
  Team team(MachineModel::testing(1, 1));
  team.run([&](Rank& me) {
    me.charge_gemm(64, 64, 64, 0.5);
    EXPECT_NEAR(me.clock().now(), team.machine().dgemm.time(64, 64, 64) * 2.0,
                1e-15);
    EXPECT_THROW(me.charge_gemm(8, 8, 8, 0.0), Error);
  });
}

TEST(Team, ExceptionPropagatesAndDoesNotDeadlock) {
  Team team(MachineModel::testing(4, 1));
  EXPECT_THROW(team.run([&](Rank& me) {
    if (me.id() == 2) throw Error("rank 2 failed");
    me.barrier();  // would deadlock without abort-propagation
  }),
               Error);
  EXPECT_TRUE(team.aborted());
  team.reset();
  EXPECT_FALSE(team.aborted());
  // Team is usable again after reset.
  team.run([](Rank& me) { me.barrier(); });
}

TEST(Team, RunAfterAbortWithoutResetThrows) {
  Team team(MachineModel::testing(2, 1));
  EXPECT_THROW(team.run([](Rank&) { throw Error("boom"); }), Error);
  EXPECT_THROW(team.run([](Rank&) {}), Error);
}

TEST(Team, ResetClearsClocksTracesAndNetwork) {
  Team team(MachineModel::testing(2, 1));
  team.run([](Rank& me) {
    me.charge_gemm(32, 32, 32);
    me.barrier();
  });
  EXPECT_GT(team.max_clock(), 0.0);
  team.reset();
  EXPECT_EQ(team.max_clock(), 0.0);
  EXPECT_EQ(team.total_trace().gemm_calls, 0u);
}

TEST(Team, TotalTraceSumsRanks) {
  Team team(MachineModel::testing(3, 1));
  team.run([](Rank& me) { me.charge_gemm(16, 16, 16); });
  EXPECT_EQ(team.total_trace().gemm_calls, 3u);
}

TEST(Team, TraceBoardSlotsArePerRank) {
  Team team(MachineModel::testing(2, 2));
  team.run([&](Rank& me) {
    TraceCounters t;
    t.gets = static_cast<std::uint64_t>(me.id());
    team.trace_board(me.id()) = t;
    me.barrier();
    std::uint64_t sum = 0;
    for (int r = 0; r < team.size(); ++r) sum += team.trace_board(r).gets;
    EXPECT_EQ(sum, 0u + 1 + 2 + 3);
  });
}

TEST(Team, SingleRankBarrierIsFree) {
  Team team(MachineModel::testing(1, 1));
  team.run([](Rank& me) {
    me.barrier();
    EXPECT_DOUBLE_EQ(me.clock().now(), 0.0);
  });
}

TEST(Team, RankOutOfRangeThrows) {
  Team team(MachineModel::testing(2, 1));
  EXPECT_THROW((void)team.rank(2), Error);
  EXPECT_THROW((void)team.rank(-1), Error);
  EXPECT_THROW((void)team.trace_board(7), Error);
}

TEST(Team, ManyRanksBarrierStress) {
  Team team(MachineModel::testing(32, 2));  // 64 threads on this host
  team.run([](Rank& me) {
    for (int i = 0; i < 10; ++i) me.barrier();
  });
  EXPECT_GT(team.max_clock(), 0.0);
}

// A rank that fails while a peer is parked inside a blocking collective
// wait must (a) wake that peer promptly via the abort-cv registry instead
// of leaving it to ride out a polling interval, and (b) surface *its own*
// error at the Team::run call site, not the peer's secondary abort error.
TEST(Team, AbortWakesPeerBlockedInSymmetricAlloc) {
  Team team(MachineModel::testing(2, 1));
  RmaRuntime rma(team);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    team.run([&](Rank& me) {
      if (me.id() == 0) throw Error("original failure");
      (void)rma.malloc_symmetric(me, 128);  // blocks: rank 0 never joins
      FAIL() << "peer must not complete the collective";
    });
    FAIL() << "Team::run must rethrow";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "original failure");
  }
  const auto wall = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(wall).count(), 5);
  EXPECT_TRUE(team.aborted());
}

TEST(Team, AbortWakesPeerBlockedInRecv) {
  Team team(MachineModel::testing(2, 1));
  Comm comm(team);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    team.run([&](Rank& me) {
      if (me.id() == 0) throw Error("sender died");
      double x = 0.0;
      comm.recv(me, 0, 7, &x, 1);  // blocks: the message never arrives
      FAIL() << "recv must not complete";
    });
    FAIL() << "Team::run must rethrow";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "sender died");
  }
  const auto wall = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(wall).count(), 5);
  EXPECT_TRUE(team.aborted());
}

// The execution modes a barrier must behave the same under: pooled fibers
// on one worker (deterministic round-robin) and on three (parked fibers
// poll the generation while other workers release), and one OS thread per
// rank (condition-variable waiters).
struct ExecCase {
  ExecMode mode;
  int workers;
};
constexpr ExecCase kExecCases[] = {
    {ExecMode::Pooled, 1}, {ExecMode::Pooled, 3}, {ExecMode::Threads, 0}};

// Yield the rank's worker: the fiber when pooled, the OS thread otherwise.
void let_others_run() {
  if (exec::on_fiber()) {
    exec::yield();
  } else {
    std::this_thread::yield();
  }
}

TEST(Team, BarrierLastArriverHookRunsOncePerGenerationBeforeRelease) {
  constexpr int kBarriers = 40;
  for (const ExecCase& ec : kExecCases) {
    Team team(MachineModel::testing(8, 3));  // 24 ranks
    team.set_execution(ec.mode, ec.workers);
    const int n = team.size();
    std::atomic<int> hooks{0};
    std::vector<std::atomic<int>> left(kBarriers);
    std::vector<double> sums(kBarriers, -1.0);
    team.run([&](Rank& me) {
      for (int b = 0; b < kBarriers; ++b) {
        const auto ub = static_cast<std::size_t>(b);
        team.value_board(me.id()) = b * 1000.0 + me.id();
        team.barrier_wait(me, [&, ub] {
          // No rank has left this barrier, and every rank's write before
          // it is visible to the hook.
          EXPECT_EQ(left[ub].load(), 0);
          double sum = 0.0;
          for (int r = 0; r < n; ++r) sum += team.value_board(r);
          sums[ub] = sum;
          hooks.fetch_add(1);
        });
        // This barrier's hook ran before this rank left, and the next one
        // cannot run before this rank arrives there.
        EXPECT_EQ(hooks.load(), b + 1);
        EXPECT_EQ(sums[ub], b * 1000.0 * n + n * (n - 1) / 2.0);
        left[ub].fetch_add(1);
        if (me.id() % 5 == b % 5) let_others_run();
        // The boards stay readable until the next barrier, as the sum
        // collect_result copies does.
        me.barrier();
      }
    });
    EXPECT_EQ(hooks.load(), kBarriers) << "workers " << ec.workers;
    for (const std::atomic<int>& l : left) EXPECT_EQ(l.load(), n);
  }
}

TEST(Team, AbortWhileRanksPollThrowsInEveryWaiter) {
  for (const ExecCase& ec : kExecCases) {
    Team team(MachineModel::testing(8, 3));
    team.set_execution(ec.mode, ec.workers);
    const int n = team.size();
    std::atomic<int> arrived{0};
    std::atomic<int> aborted_waits{0};
    try {
      team.run([&](Rank& me) {
        if (me.id() == n - 1) {
          // Fail only once every peer has entered the barrier, and give
          // them a while to poll (or block) there first.
          while (arrived.load() < n - 1) let_others_run();
          for (int i = 0; i < 200; ++i) let_others_run();
          throw Error("last rank failed");
        }
        arrived.fetch_add(1);
        try {
          me.barrier();
        } catch (const Error&) {
          aborted_waits.fetch_add(1);
          throw;
        }
        ADD_FAILURE() << "rank " << me.id() << " left an aborted barrier";
      });
      FAIL() << "Team::run must rethrow";
    } catch (const Error& e) {
      EXPECT_STREQ(e.what(), "last rank failed");
    }
    EXPECT_EQ(aborted_waits.load(), n - 1) << "workers " << ec.workers;
  }
}

}  // namespace
}  // namespace srumma
