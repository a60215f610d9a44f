// Tests for the two-sided (MPI-model) layer: matching semantics, data
// correctness, eager vs rendezvous behaviour (including the overlap cliff),
// collectives, and deadlock-freedom of the exchange patterns the baselines
// rely on.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "msg/comm.hpp"
#include "runtime/team.hpp"

namespace srumma {
namespace {

TEST(MsgP2P, SmallMessageRoundTrip) {
  Team team(MachineModel::testing(2, 1));
  Comm comm(team);
  team.run([&](Rank& me) {
    double v[4] = {};
    if (me.id() == 0) {
      double s[4] = {1, 2, 3, 4};
      comm.send(me, 1, 7, s, 4);
    } else {
      comm.recv(me, 0, 7, v, 4);
      EXPECT_EQ(v[3], 4.0);
      EXPECT_EQ(me.trace().recvs, 1u);
    }
  });
}

TEST(MsgP2P, LargeMessageUsesRendezvous) {
  Team team(MachineModel::testing(2, 1));
  Comm comm(team);
  const std::size_t elems = 8192;  // 64 KB > 16 KB threshold
  team.run([&](Rank& me) {
    std::vector<double> buf(elems);
    if (me.id() == 0) {
      std::iota(buf.begin(), buf.end(), 0.0);
      comm.send(me, 1, 1, buf.data(), elems);
    } else {
      comm.recv(me, 0, 1, buf.data(), elems);
      EXPECT_EQ(buf[8191], 8191.0);
    }
  });
}

TEST(MsgP2P, RendezvousSynchronizesClocks) {
  // A blocking rendezvous send cannot complete before the receiver posts:
  // the sender's clock must jump to (at least) the receiver's posting time.
  Team team(MachineModel::testing(2, 1));
  Comm comm(team);
  team.run([&](Rank& me) {
    std::vector<double> buf(4096);  // 32 KB
    if (me.id() == 0) {
      comm.send(me, 1, 1, buf.data(), buf.size());
      EXPECT_GE(me.clock().now(), 0.5);
    } else {
      me.charge_seconds(0.5);  // receiver shows up late
      comm.recv(me, 0, 1, buf.data(), buf.size());
    }
  });
}

TEST(MsgP2P, EagerSenderDoesNotBlock) {
  Team team(MachineModel::testing(2, 1));
  Comm comm(team);
  const MachineModel& mm = team.machine();
  team.run([&](Rank& me) {
    double v[8] = {};
    if (me.id() == 0) {
      comm.send(me, 1, 3, v, 8);
      // Sender cost is local only: latency + copy, no receiver dependency.
      EXPECT_LT(me.clock().now(), mm.mpi_latency * 2 + 1e-6);
    } else {
      me.charge_seconds(0.25);
      comm.recv(me, 0, 3, v, 8);
    }
  });
}

TEST(MsgP2P, TagsKeepStreamsSeparate) {
  Team team(MachineModel::testing(2, 1));
  Comm comm(team);
  team.run([&](Rank& me) {
    if (me.id() == 0) {
      double a = 1.0, b = 2.0;
      comm.send(me, 1, 10, &a, 1);
      comm.send(me, 1, 20, &b, 1);
    } else {
      double b = 0, a = 0;
      comm.recv(me, 0, 20, &b, 1);  // out of arrival order
      comm.recv(me, 0, 10, &a, 1);
      EXPECT_EQ(a, 1.0);
      EXPECT_EQ(b, 2.0);
    }
  });
}

TEST(MsgP2P, FifoPerSourceAndTag) {
  Team team(MachineModel::testing(2, 1));
  Comm comm(team);
  team.run([&](Rank& me) {
    if (me.id() == 0) {
      for (int i = 0; i < 5; ++i) {
        double v = i;
        comm.send(me, 1, 4, &v, 1);
      }
    } else {
      for (int i = 0; i < 5; ++i) {
        double v = -1;
        comm.recv(me, 0, 4, &v, 1);
        EXPECT_EQ(v, static_cast<double>(i));
      }
    }
  });
}

TEST(MsgP2P, CountMismatchThrows) {
  Team team(MachineModel::testing(2, 1));
  Comm comm(team);
  EXPECT_THROW(team.run([&](Rank& me) {
    double v[4] = {};
    if (me.id() == 0) {
      comm.send(me, 1, 1, v, 4);
    } else {
      comm.recv(me, 0, 1, v, 2);
    }
  }),
               Error);
  team.reset();
}

TEST(MsgP2P, SelfSendThrows) {
  Team team(MachineModel::testing(2, 1));
  Comm comm(team);
  EXPECT_THROW(team.run([&](Rank& me) {
    double v = 0;
    comm.send(me, me.id(), 0, &v, 1);
  }),
               Error);
}

TEST(MsgNonblocking, EagerIsendOverlapsFully) {
  Team team(MachineModel::testing(2, 1));
  Comm comm(team);
  team.run([&](Rank& me) {
    double v[4] = {};
    if (me.id() == 0) {
      SendHandle h = comm.isend(me, 1, 1, v, 4);
      const double before_wait = me.clock().now();
      comm.wait(me, h);
      EXPECT_DOUBLE_EQ(me.clock().now(), before_wait);  // nothing to do
    } else {
      comm.recv(me, 0, 1, v, 4);
    }
  });
}

TEST(MsgNonblocking, RendezvousIsendPaysAtWait) {
  // The Fig. 7 cliff: a rendezvous isend makes no progress while the sender
  // computes; the whole transfer lands in wait().
  Team team(MachineModel::testing(2, 1));
  Comm comm(team);
  const MachineModel& mm = team.machine();
  const std::size_t elems = 1 << 16;  // 512 KB
  team.run([&](Rank& me) {
    std::vector<double> buf(elems);
    if (me.id() == 0) {
      SendHandle h = comm.isend(me, 1, 1, buf.data(), elems);
      me.charge_seconds(10.0);  // plenty of computation to hide behind
      const double before_wait = me.clock().now();
      comm.wait(me, h);
      // Despite 10 s of compute, the wire time was NOT hidden.
      EXPECT_GE(me.clock().now() - before_wait,
                static_cast<double>(elems * 8) / mm.net_bw * 0.99);
    } else {
      std::vector<double> rbuf(elems);
      comm.recv(me, 0, 1, rbuf.data(), elems);
    }
  });
}

TEST(MsgNonblocking, IrecvMatchesLateSender) {
  Team team(MachineModel::testing(2, 1));
  Comm comm(team);
  team.run([&](Rank& me) {
    double v[2] = {};
    if (me.id() == 1) {
      RecvHandle h = comm.irecv(me, 0, 9, v, 2);
      comm.wait(me, h);
      EXPECT_EQ(v[1], 5.0);
    } else {
      me.charge_seconds(0.01);
      double s[2] = {4.0, 5.0};
      comm.send(me, 1, 9, s, 2);
    }
  });
}

TEST(MsgNonblocking, ExchangePairDoesNotDeadlock) {
  // Symmetric large-message exchange via sendrecv on every rank pair of a
  // ring — the pattern Cannon's shifts use.
  Team team(MachineModel::testing(4, 1));
  Comm comm(team);
  const std::size_t elems = 4096;  // rendezvous-sized
  team.run([&](Rank& me) {
    std::vector<double> sbuf(elems, static_cast<double>(me.id()));
    std::vector<double> rbuf(elems, -1.0);
    const int right = (me.id() + 1) % team.size();
    const int left = (me.id() + team.size() - 1) % team.size();
    comm.sendrecv(me, right, 5, sbuf.data(), elems, left, 5, rbuf.data(),
                  elems);
    EXPECT_EQ(rbuf[100], static_cast<double>(left));
  });
}

TEST(MsgCollective, BcastDeliversToAll) {
  Team team(MachineModel::testing(3, 2));
  Comm comm(team);
  std::vector<int> group{0, 1, 2, 3, 4, 5};
  team.run([&](Rank& me) {
    double v[3] = {};
    if (me.id() == 2) {
      v[0] = 1.5;
      v[1] = 2.5;
      v[2] = 3.5;
    }
    comm.bcast(me, group, 2, v, 3);
    EXPECT_EQ(v[0], 1.5);
    EXPECT_EQ(v[2], 3.5);
  });
}

TEST(MsgCollective, BcastSubGroup) {
  Team team(MachineModel::testing(4, 1));
  Comm comm(team);
  std::vector<int> group{1, 3};
  team.run([&](Rank& me) {
    if (me.id() != 1 && me.id() != 3) return;
    double v = me.id() == 3 ? 42.0 : 0.0;
    comm.bcast(me, group, 3, &v, 1);
    EXPECT_EQ(v, 42.0);
  });
}

TEST(MsgCollective, BcastNonMemberThrows) {
  Team team(MachineModel::testing(2, 1));
  Comm comm(team);
  EXPECT_THROW(team.run([&](Rank& me) {
    std::vector<int> group{0};
    double v = 0;
    comm.bcast(me, group, 0, &v, 1);  // rank 1 is not in the group
  }),
               Error);
}

TEST(MsgCollective, PhantomBcastTimesWithoutData) {
  Team team(MachineModel::testing(4, 1));
  Comm comm(team);
  std::vector<int> group{0, 1, 2, 3};
  team.run([&](Rank& me) {
    comm.bcast(me, group, 0, nullptr, 1 << 16);
    EXPECT_GT(me.clock().now(), 0.0);
  });
  EXPECT_GT(team.total_trace().bytes_msg, 0u);
}

TEST(MsgConfig, EagerThresholdOverride) {
  // Lowering the threshold turns a small message into a rendezvous one:
  // the sender must then synchronize with a late receiver.
  Team team(MachineModel::testing(2, 1));
  Comm comm(team, MsgConfig{.eager_threshold = 64.0});
  EXPECT_DOUBLE_EQ(comm.eager_threshold(), 64.0);
  team.run([&](Rank& me) {
    double buf[32] = {};  // 256 bytes: rendezvous under the override
    if (me.id() == 0) {
      comm.send(me, 1, 1, buf, 32);
      EXPECT_GE(me.clock().now(), 0.25);  // blocked until the recv posted
    } else {
      me.charge_seconds(0.25);
      comm.recv(me, 0, 1, buf, 32);
    }
  });
}

TEST(MsgConfig, RaisedThresholdKeepsLargeMessagesEager) {
  Team team(MachineModel::testing(2, 1));
  Comm comm(team, MsgConfig{.eager_threshold = 1e9});
  team.run([&](Rank& me) {
    std::vector<double> buf(1 << 16);  // 512 KB, eager under the override
    if (me.id() == 0) {
      comm.send(me, 1, 1, buf.data(), buf.size());
      EXPECT_LT(me.clock().now(), 0.2);  // returned without the receiver
    } else {
      me.charge_seconds(0.25);
      comm.recv(me, 0, 1, buf.data(), buf.size());
    }
  });
}

TEST(MsgTiming, HalfRoundTripLatencySemantics) {
  // A 1-element ping: receiver completes at roughly sender latency + copy
  // costs, i.e. "half of the round-trip exchange" as the paper measures.
  Team team(MachineModel::testing(2, 1));
  Comm comm(team);
  const MachineModel& mm = team.machine();
  team.run([&](Rank& me) {
    double v = 0;
    if (me.id() == 0) {
      comm.send(me, 1, 1, &v, 1);
    } else {
      comm.recv(me, 0, 1, &v, 1);
      EXPECT_GE(me.clock().now(), mm.mpi_latency);
      EXPECT_LE(me.clock().now(), mm.mpi_latency * 4);
    }
  });
}

}  // namespace
}  // namespace srumma
