// Tests for the one-sided (ARMCI-model) runtime: collective symmetric
// allocation, get/put data correctness under real concurrency, protocol
// timing (latency, bandwidth, zero-copy host steal), and phantom mode.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rma/rma.hpp"
#include "runtime/team.hpp"
#include "util/rng.hpp"

namespace srumma {
namespace {

TEST(RmaAlloc, SymmetricBasesVisibleEverywhere) {
  Team team(MachineModel::testing(2, 2));
  RmaRuntime rma(team);
  team.run([&](Rank& me) {
    SymmetricRegion r = rma.malloc_symmetric(me, 16);
    for (int peer = 0; peer < team.size(); ++peer)
      EXPECT_NE(r.base(peer), nullptr);
    // My segment is writable and zero-initialized.
    EXPECT_EQ(r.base(me.id())[7], 0.0);
    r.base(me.id())[7] = static_cast<double>(me.id());
    me.barrier();
    // Shared address space: peers' writes are visible after a barrier.
    EXPECT_EQ(r.base((me.id() + 1) % team.size())[7],
              static_cast<double>((me.id() + 1) % team.size()));
  });
}

TEST(RmaAlloc, DifferentSizesPerRank) {
  Team team(MachineModel::testing(3, 1));
  RmaRuntime rma(team);
  team.run([&](Rank& me) {
    SymmetricRegion r =
        rma.malloc_symmetric(me, static_cast<std::size_t>(me.id() + 1) * 8);
    EXPECT_NE(r.base(2), nullptr);
  });
}

TEST(RmaAlloc, PhantomSegmentsAreNull) {
  Team team(MachineModel::testing(2, 1));
  RmaRuntime rma(team);
  team.run([&](Rank& me) {
    SymmetricRegion r = rma.malloc_symmetric(me, 0);
    EXPECT_EQ(r.base(0), nullptr);
    EXPECT_EQ(r.base(1), nullptr);
  });
}

TEST(RmaAlloc, FreeIsCollectiveAndChecked) {
  Team team(MachineModel::testing(2, 1));
  RmaRuntime rma(team);
  team.run([&](Rank& me) {
    SymmetricRegion r = rma.malloc_symmetric(me, 8);
    rma.free_symmetric(me, r);
    EXPECT_THROW(rma.free_symmetric(me, r), Error);  // double free
  });
}

TEST(RmaAlloc, SequentialAllocationsMatchAcrossRanks) {
  Team team(MachineModel::testing(2, 2));
  RmaRuntime rma(team);
  team.run([&](Rank& me) {
    SymmetricRegion r1 = rma.malloc_symmetric(me, 4);
    SymmetricRegion r2 = rma.malloc_symmetric(me, 4);
    EXPECT_NE(r1.seq, r2.seq);
    EXPECT_NE(r1.base(me.id()), r2.base(me.id()));
  });
}

TEST(RmaGet, MovesDataBetweenRanks) {
  Team team(MachineModel::testing(2, 2));
  RmaRuntime rma(team);
  team.run([&](Rank& me) {
    SymmetricRegion r = rma.malloc_symmetric(me, 64);
    for (int i = 0; i < 64; ++i)
      r.base(me.id())[i] = 100.0 * me.id() + i;
    me.barrier();
    const int peer = (me.id() + 1) % team.size();
    double buf[64];
    RmaHandle h = rma.nbget(me, peer, r.base(peer), buf, 64);
    rma.wait(me, h);
    for (int i = 0; i < 64; ++i) EXPECT_EQ(buf[i], 100.0 * peer + i);
    EXPECT_EQ(me.trace().gets, 1u);
  });
}

TEST(RmaGet, Strided2dRespectsLeadingDims) {
  Team team(MachineModel::testing(1, 2));
  RmaRuntime rma(team);
  team.run([&](Rank& me) {
    SymmetricRegion r = rma.malloc_symmetric(me, 6 * 5);  // 6x5 block
    MatrixView mine(r.base(me.id()), 6, 5, 6);
    fill_coords(mine, me.id() * 6, 0);
    me.barrier();
    const int peer = 1 - me.id();
    Matrix dst(10, 10);
    // Fetch peer's interior 3x2 patch at (2,1) into dst at (4,3).
    RmaHandle h = rma.nbget2d(me, peer, r.base(peer) + 2 + 1 * 6, 6, 3, 2,
                              &dst(4, 3), dst.ld());
    rma.wait(me, h);
    Matrix expect(3, 2);
    fill_coords(expect.view(), peer * 6 + 2, 1);
    EXPECT_EQ(max_abs_diff(dst.block(4, 3, 3, 2), expect.view()), 0.0);
  });
}

TEST(RmaPut, MovesDataToOwner) {
  Team team(MachineModel::testing(1, 2));
  RmaRuntime rma(team);
  team.run([&](Rank& me) {
    SymmetricRegion r = rma.malloc_symmetric(me, 8);
    me.barrier();
    if (me.id() == 0) {
      double src[8];
      for (int i = 0; i < 8; ++i) src[i] = 7.0 + i;
      RmaHandle h = rma.nbput2d(me, 1, src, 8, 8, 1, r.base(1), 8);
      rma.wait(me, h);
      EXPECT_EQ(me.trace().puts, 1u);
    }
    me.barrier();
    if (me.id() == 1) {
      EXPECT_EQ(r.base(1)[3], 10.0);
    }
  });
}

TEST(RmaTiming, IntraDomainChargesSynchronously) {
  // Shared-memory copies are CPU-executed: the clock advances at issue and
  // wait() is (nearly) free — no fake overlap on shared-memory machines.
  Team team(MachineModel::testing(1, 2));
  RmaRuntime rma(team);
  const MachineModel& mm = team.machine();
  team.run([&](Rank& me) {
    SymmetricRegion r = rma.malloc_symmetric(me, 1 << 14);
    me.barrier();
    const double t0 = me.clock().now();
    const std::size_t elems = 1 << 14;
    RmaHandle h =
        rma.nbget(me, 1 - me.id(), r.base(1 - me.id()), nullptr, elems);
    const double issue_cost = me.clock().now() - t0;
    const double expected = mm.rma_issue_overhead + mm.shm_latency +
                            static_cast<double>(elems * 8) / mm.shm_bw;
    EXPECT_GE(issue_cost, expected * 0.99);
    rma.wait(me, h);
    EXPECT_EQ(me.trace().bytes_shm, elems * 8);
    EXPECT_EQ(me.trace().bytes_remote, 0u);
  });
}

TEST(RmaTiming, RemoteGetOverlapsUntilWait) {
  // Inter-node zero-copy gets complete in the background: issue is cheap,
  // and the wait at completion reflects latency + wire time.
  Team team(MachineModel::testing(2, 1));
  RmaRuntime rma(team);
  const MachineModel& mm = team.machine();
  team.run([&](Rank& me) {
    SymmetricRegion r = rma.malloc_symmetric(me, 1 << 15);
    me.barrier();
    const double t0 = me.clock().now();
    const std::size_t elems = 1 << 15;
    RmaHandle h =
        rma.nbget(me, 1 - me.id(), r.base(1 - me.id()), nullptr, elems);
    const double issue_cost = me.clock().now() - t0;
    EXPECT_LE(issue_cost, mm.rma_issue_overhead * 1.01);  // nonblocking
    const double wire = static_cast<double>(elems * 8) / mm.net_bw;
    EXPECT_NEAR(h.completion - t0, mm.rma_issue_overhead + mm.net_latency + wire,
                1e-9);
    // Computing this long should fully hide the transfer.
    me.charge_seconds(wire * 2);
    const double before = me.clock().now();
    rma.wait(me, h);
    EXPECT_DOUBLE_EQ(me.clock().now(), before);  // already complete
    EXPECT_EQ(me.trace().bytes_remote, elems * 8);
  });
}

TEST(RmaTiming, NonZeroCopyStealsFromOwner) {
  MachineModel m = MachineModel::testing(2, 1);
  m.zero_copy = false;
  Team team(m);
  RmaRuntime rma(team);
  team.run([&](Rank& me) {
    SymmetricRegion r = rma.malloc_symmetric(me, 4096);
    me.barrier();
    if (me.id() == 0) {
      RmaHandle h = rma.nbget(me, 1, r.base(1), nullptr, 4096);
      rma.wait(me, h);
    }
    me.barrier();
    if (me.id() == 1) {
      // The owner's CPU paid the host copy.
      EXPECT_NEAR(me.clock().steal_total(),
                  4096.0 * 8 / team.machine().host_copy_bw, 1e-12);
    }
  });
}

TEST(RmaTiming, ZeroCopyOverrideDisablesSteal) {
  MachineModel m = MachineModel::testing(2, 1);
  m.zero_copy = false;
  Team team(m);
  RmaConfig zc_cfg;
  zc_cfg.zero_copy = true;
  RmaRuntime rma(team, zc_cfg);
  EXPECT_TRUE(rma.zero_copy());
  team.run([&](Rank& me) {
    SymmetricRegion r = rma.malloc_symmetric(me, 4096);
    me.barrier();
    if (me.id() == 0) {
      RmaHandle h = rma.nbget(me, 1, r.base(1), nullptr, 4096);
      rma.wait(me, h);
    }
    me.barrier();
    if (me.id() == 1) {
      EXPECT_EQ(me.clock().steal_total(), 0.0);
    }
  });
}

TEST(RmaTiming, NicContentionSerializesGetsFromOneNode) {
  // 4 single-rank nodes all pulling from node 0 at once: the last transfer
  // completes no earlier than 4x the wire time (egress NIC serialization).
  Team team(MachineModel::testing(4, 1));
  RmaRuntime rma(team);
  const MachineModel& mm = team.machine();
  team.run([&](Rank& me) {
    SymmetricRegion r = rma.malloc_symmetric(me, 1 << 16);
    me.barrier();
    if (me.id() != 0) {
      const std::size_t elems = 1 << 16;
      RmaHandle h = rma.nbget(me, 0, r.base(0), nullptr, elems);
      rma.wait(me, h);
      team.trace_board(me.id()).time_wait = me.clock().now();
    }
    me.barrier();
    if (me.id() == 0) {
      double last = 0.0;
      for (int rk = 1; rk < 4; ++rk)
        last = std::max(last, team.trace_board(rk).time_wait);
      const double wire = (1 << 16) * 8.0 / mm.net_bw;
      EXPECT_GE(last, 3.0 * wire);  // serialized behind two predecessors
    }
  });
}

TEST(RmaAlloc, MixedZeroSizeAllocationFreesCleanly) {
  // A collective allocation where only some ranks contribute storage is
  // legal (e.g. edge ranks of an uneven block distribution): zero-size
  // ranks publish a null base, everyone still sees everyone else's, and
  // the collective free completes.
  Team team(MachineModel::testing(2, 1));
  RmaRuntime rma(team);
  team.run([&](Rank& me) {
    const std::size_t elems = me.id() == 0 ? 0 : 8;
    SymmetricRegion r = rma.malloc_symmetric(me, elems);
    EXPECT_EQ(r.base(0), nullptr);
    EXPECT_NE(r.base(1), nullptr);
    rma.free_symmetric(me, r);
    me.barrier();
  });
}

TEST(RmaAlloc, ForeignRegionFreeThrows) {
  // Two runtimes over the same team hand out colliding allocation sequence
  // numbers; free_symmetric must still reject a region the *other* runtime
  // allocated instead of silently unmapping its own.
  Team team(MachineModel::testing(1, 2));
  RmaRuntime rma1(team);
  RmaRuntime rma2(team);
  team.run([&](Rank& me) {
    SymmetricRegion r1 = rma1.malloc_symmetric(me, 8);
    SymmetricRegion r2 = rma2.malloc_symmetric(me, 8);
    try {
      rma2.free_symmetric(me, r1);
      FAIL() << "freeing a foreign region must throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("not allocated by this runtime"),
                std::string::npos);
    }
    rma1.free_symmetric(me, r1);
    rma2.free_symmetric(me, r2);
    me.barrier();
  });
}

TEST(RmaAlloc, NeverAllocatedRegionFreeThrows) {
  Team team(MachineModel::testing(1, 1));
  RmaRuntime rma(team);
  team.run([&](Rank& me) {
    SymmetricRegion bogus;  // default: seq 0, no bases
    try {
      rma.free_symmetric(me, bogus);
      FAIL() << "freeing an unknown region must throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("not live"), std::string::npos);
    }
  });
}

TEST(RmaErrors, BadArgumentsThrow) {
  Team team(MachineModel::testing(1, 2));
  RmaRuntime rma(team);
  team.run([&](Rank& me) {
    RmaHandle h;
    EXPECT_THROW(rma.wait(me, h), Error);  // never issued
    EXPECT_THROW(rma.nbget(me, 99, nullptr, nullptr, 8), Error);
    EXPECT_THROW(rma.nbget2d(me, 0, nullptr, 1, -1, 2, nullptr, 1), Error);
    me.barrier();
  });
}

TEST(RmaErrors, Strided2dArgumentValidation) {
  Team team(MachineModel::testing(1, 2));
  RmaRuntime rma(team);
  team.run([&](Rank& me) {
    std::vector<double> buf(64, 0.0);
    // Leading dimension smaller than the patch height.
    EXPECT_THROW(
        rma.nbget2d(me, 0, buf.data(), 2, 4, 2, buf.data() + 32, 4), Error);
    EXPECT_THROW(
        rma.nbput2d(me, 0, buf.data(), 4, 4, 2, buf.data() + 32, 2), Error);
    // Owner rank out of range.
    EXPECT_THROW(
        rma.nbput2d(me, 2, buf.data(), 4, 4, 2, buf.data() + 32, 4), Error);
    EXPECT_THROW(rma.nbacc2d(me, -1, 1.0, buf.data(), 4, 4, 2,
                             buf.data() + 32, 4),
                 Error);
    // Negative extents.
    EXPECT_THROW(rma.nbacc2d(me, 0, 1.0, buf.data(), 4, 4, -2,
                             buf.data() + 32, 4),
                 Error);
    me.barrier();
  });
}

TEST(RmaWait, IdempotentOnCompletedHandle) {
  Team team(MachineModel::testing(1, 2));
  RmaConfig cfg;
  cfg.check = false;  // plain-runtime semantics, regardless of environment
  RmaRuntime rma(team, cfg);
  team.run([&](Rank& me) {
    std::vector<double> src(8, 1.0);
    std::vector<double> dst(8, 0.0);
    RmaHandle h = rma.nbget(me, me.id(), src.data(), dst.data(), 8);
    rma.wait(me, h);
    EXPECT_FALSE(h.pending);
    const double after_first = me.clock().now();
    EXPECT_NO_THROW(rma.wait(me, h));  // documented no-op
    EXPECT_NO_THROW(rma.wait(me, h));
    EXPECT_EQ(me.clock().now(), after_first);
    EXPECT_EQ(dst[0], 1.0);
  });
}

TEST(RmaGet, ZeroByteGetCompletesImmediately) {
  Team team(MachineModel::testing(1, 2));
  RmaRuntime rma(team);
  team.run([&](Rank& me) {
    RmaHandle h = rma.nbget(me, 1 - me.id(), nullptr, nullptr, 0);
    rma.wait(me, h);
    EXPECT_EQ(me.trace().bytes_shm + me.trace().bytes_remote, 0u);
  });
}

TEST(RmaGet, BlockingGetIncludesTransferTime) {
  Team team(MachineModel::testing(2, 1));
  RmaRuntime rma(team);
  const MachineModel& mm = team.machine();
  team.run([&](Rank& me) {
    SymmetricRegion r = rma.malloc_symmetric(me, 1024);
    me.barrier();
    const double t0 = me.clock().now();
    RmaHandle h = rma.nbget2d(me, 1 - me.id(), r.base(1 - me.id()), 1024,
                              1024, 1, nullptr, 1024);
    rma.wait(me, h);
    EXPECT_GE(me.clock().now() - t0,
              mm.net_latency + 1024 * 8.0 / mm.net_bw * 0.99);
  });
}

}  // namespace
}  // namespace srumma
