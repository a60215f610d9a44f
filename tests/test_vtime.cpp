// Tests for the virtual-time substrate: clocks, steal accounting, and the
// serialized bandwidth resources used for contention modeling.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "machine/machine.hpp"
#include "vtime/clock.hpp"
#include "vtime/network.hpp"
#include "vtime/resource.hpp"
#include "vtime/trace_counters.hpp"

namespace srumma {
namespace {

TEST(VClock, AdvanceAndSync) {
  VClock c;
  EXPECT_EQ(c.now(), 0.0);
  c.advance(1.5);
  EXPECT_DOUBLE_EQ(c.now(), 1.5);
  c.sync_to(1.0);  // past: no-op
  EXPECT_DOUBLE_EQ(c.now(), 1.5);
  c.sync_to(3.0);
  EXPECT_DOUBLE_EQ(c.now(), 3.0);
}

TEST(VClock, StealFoldsIn) {
  VClock c;
  c.advance(1.0);
  c.add_steal(0.25);
  EXPECT_DOUBLE_EQ(c.now(), 1.25);  // applied lazily at next observation
  EXPECT_DOUBLE_EQ(c.steal_total(), 0.25);
}

TEST(VClock, StealFromManyThreads) {
  VClock c;
  std::vector<std::thread> ts;
  for (int i = 0; i < 8; ++i)
    ts.emplace_back([&c] {
      for (int j = 0; j < 1000; ++j) c.add_steal(0.001);
    });
  for (auto& t : ts) t.join();
  EXPECT_NEAR(c.now(), 8.0, 1e-9);
}

TEST(VClock, ResetClearsEverything) {
  VClock c;
  c.advance(5.0);
  c.add_steal(1.0);
  c.reset();
  EXPECT_EQ(c.now(), 0.0);
  EXPECT_EQ(c.steal_total(), 0.0);
}

TEST(Resource, SerializesOverlappingBookings) {
  Resource r;
  EXPECT_DOUBLE_EQ(r.book(0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(r.book(0.0, 1.0), 2.0);  // queues behind the first
  EXPECT_DOUBLE_EQ(r.book(5.0, 1.0), 6.0);  // idle gap respected
  EXPECT_DOUBLE_EQ(r.busy_total(), 3.0);
}

TEST(Resource, PlacementIsVirtualTimeOrderedNotArrivalOrdered) {
  // A transfer booked later in real time but ready earlier in virtual time
  // must not queue behind unrelated future reservations.
  Resource r;
  EXPECT_DOUBLE_EQ(r.book(10.0, 1.0), 11.0);  // booked first, ready late
  EXPECT_DOUBLE_EQ(r.book(0.0, 1.0), 1.0);    // booked second, ready early
}

TEST(Resource, FillsGapsFirstFit) {
  Resource r;
  EXPECT_DOUBLE_EQ(r.book(0.0, 1.0), 1.0);   // [0,1)
  EXPECT_DOUBLE_EQ(r.book(3.0, 1.0), 4.0);   // [3,4)
  EXPECT_DOUBLE_EQ(r.book(0.0, 2.0), 3.0);   // exact fit into [1,3)
  EXPECT_DOUBLE_EQ(r.book(0.0, 0.5), 4.5);   // no gap left before 4
}

TEST(Resource, SkipsTooSmallGaps) {
  Resource r;
  EXPECT_DOUBLE_EQ(r.book(0.0, 1.0), 1.0);   // [0,1)
  EXPECT_DOUBLE_EQ(r.book(1.5, 1.0), 2.5);   // [1.5,2.5)
  EXPECT_DOUBLE_EQ(r.book(0.0, 0.8), 3.3);   // [1,1.5) too small -> after 2.5
}

TEST(Resource, ConservesThroughputUnderContention) {
  // N concurrent bookings of duration d on one resource must finish no
  // earlier than N*d: a link can never move more than its bandwidth.
  Resource r;
  constexpr int kN = 16;
  std::vector<std::thread> ts;
  std::vector<double> done(kN);
  for (int i = 0; i < kN; ++i)
    ts.emplace_back([&r, &done, i] {
      done[static_cast<std::size_t>(i)] = r.book(0.0, 0.5);
    });
  for (auto& t : ts) t.join();
  double last = 0.0;
  for (double d : done) last = std::max(last, d);
  EXPECT_NEAR(last, kN * 0.5, 1e-9);
  EXPECT_NEAR(r.busy_total(), kN * 0.5, 1e-9);
}

// Reference implementation of first-fit gap booking: the original
// std::map-based algorithm, with no adjacency merging and no frontier.
// The flat coalescing Resource must return bit-identical completions.
class ReferenceResource {
 public:
  double book(double ready, double duration) {
    if (duration <= 0.0) return ready;
    double start = ready;
    auto it = intervals_.upper_bound(start);
    if (it != intervals_.begin()) {
      auto prev = std::prev(it);
      if (prev->second > start) start = prev->second;
    }
    while (it != intervals_.end() && it->first < start + duration) {
      start = it->second;
      ++it;
    }
    intervals_.emplace(start, start + duration);
    return start + duration;
  }

 private:
  std::map<double, double> intervals_;
};

// Deterministic 64-bit LCG so the fuzz cases replay exactly.
std::uint64_t lcg(std::uint64_t& s) {
  s = s * 6364136223846793005ULL + 1442695040888963407ULL;
  return s >> 33;
}

TEST(Resource, FlatStructureMatchesMapReference) {
  Resource r;
  ReferenceResource ref;
  std::uint64_t seed = 12345;
  for (int i = 0; i < 20000; ++i) {
    const double ready = static_cast<double>(lcg(seed) % 4096) * 0.25;
    const double dur = static_cast<double>(lcg(seed) % 64) * 0.125;
    ASSERT_EQ(r.book(ready, dur), ref.book(ready, dur)) << "op " << i;
  }
}

TEST(Resource, FrontierCoalescingPreservesFutureBookings) {
  // Contract: after advance_frontier(W), every future ready is >= W.  Under
  // that contract the coalesced resource must keep returning exactly what
  // an uncoalesced reference returns, even though gaps below W vanished.
  Resource r;
  ReferenceResource ref;
  std::uint64_t seed = 999;
  double watermark = 0.0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 200; ++i) {
      const double ready =
          watermark + static_cast<double>(lcg(seed) % 512) * 0.5;
      const double dur = static_cast<double>(lcg(seed) % 32) * 0.25;
      ASSERT_EQ(r.book(ready, dur), ref.book(ready, dur))
          << "round " << round << " op " << i;
    }
    // Advance the watermark the way a barrier does: to a time at or below
    // which everything already booked has completed, here the next round's
    // minimum ready time.
    watermark += 100.0;
    r.advance_frontier(watermark);
  }
}

TEST(Resource, BookingConservationUnderHammer) {
  // Satellite bar: many threads book concurrently; reservations must never
  // overlap (a link can never exceed its bandwidth) and busy_total must
  // equal the exact sum of durations — all observed through the lock-free
  // accessors.
  Resource r;
  constexpr int kThreads = 8;
  constexpr int kOps = 500;
  std::vector<std::vector<std::pair<double, double>>> placed(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&r, &placed, t] {
      std::uint64_t seed = 1000 + static_cast<std::uint64_t>(t);
      for (int i = 0; i < kOps; ++i) {
        const double ready = static_cast<double>(lcg(seed) % 1024) * 0.5;
        const double dur =
            0.25 + static_cast<double>(lcg(seed) % 16) * 0.125;
        const double end = r.book(ready, dur);
        EXPECT_GE(end, ready + dur);
        placed[static_cast<std::size_t>(t)].push_back({end - dur, end});
      }
    });
  for (auto& t : ts) t.join();

  std::vector<std::pair<double, double>> all;
  double busy = 0.0;
  for (auto& v : placed)
    for (auto& iv : v) {
      all.push_back(iv);
      busy += iv.second - iv.first;
    }
  std::sort(all.begin(), all.end());
  for (std::size_t i = 1; i < all.size(); ++i)
    ASSERT_LE(all[i - 1].second, all[i].first)
        << "overlapping reservations at index " << i;
  EXPECT_NEAR(r.busy_total(), busy, 1e-9);
  EXPECT_NEAR(r.next_free(), all.back().second, 0.0);
}

TEST(Resource, FrontierCoalescingMidRoundPreservesFutureBookings) {
  // A barrier merges the dead prefix after it releases the ranks, so some
  // bookings with ready >= W land before advance_frontier(W) does.  The
  // placements must still be exactly the uncoalesced reference's.
  Resource r;
  ReferenceResource ref;
  std::uint64_t seed = 4242;
  double watermark = 0.0;
  for (int round = 0; round < 50; ++round) {
    const std::uint64_t merge_at = lcg(seed) % 200;
    for (std::uint64_t i = 0; i < 200; ++i) {
      if (i == merge_at) r.advance_frontier(watermark);
      const double ready =
          watermark + static_cast<double>(lcg(seed) % 512) * 0.5;
      const double dur = static_cast<double>(lcg(seed) % 32) * 0.25;
      ASSERT_EQ(r.book(ready, dur), ref.book(ready, dur))
          << "round " << round << " op " << i;
    }
    watermark += 100.0;
  }
}

TEST(Resource, NodePairHammerConservesBookings) {
  // The two ranks of one node on two harness workers: each books the
  // node's shared NIC back to back, from its own last completion plus a
  // rank-specific gap, while one of them merges the dead prefix up to the
  // pair's slower clock, as a barrier release does.  Reservations must
  // never overlap or start before their ready time, and the lock-free
  // totals must be exact.
  Resource r;
  constexpr int kOps = 50000;
  std::vector<std::vector<std::pair<double, double>>> placed(2);
  std::atomic<double> floor[2] = {0.0, 0.0};
  std::vector<std::thread> ts;
  for (int t = 0; t < 2; ++t)
    ts.emplace_back([&, t] {
      std::uint64_t seed = 77 + static_cast<std::uint64_t>(t);
      double ready = 0.0;
      auto& mine = placed[static_cast<std::size_t>(t)];
      for (int i = 0; i < kOps; ++i) {
        const double dur = 0.25 + static_cast<double>(lcg(seed) % 8) * 0.125;
        const double end = r.book(ready, dur);
        ASSERT_GE(end - dur, ready);
        mine.push_back({end - dur, end});
        ready = end + static_cast<double>(t + 1) * 0.0625;
        floor[t].store(ready);
        if (t == 0 && i % 64 == 0)
          r.advance_frontier(std::min(floor[0].load(), floor[1].load()));
      }
    });
  for (auto& t : ts) t.join();

  std::vector<std::pair<double, double>> all;
  double busy = 0.0;
  for (auto& v : placed)
    for (auto& iv : v) {
      all.push_back(iv);
      busy += iv.second - iv.first;
    }
  ASSERT_EQ(all.size(), 2u * kOps);
  std::sort(all.begin(), all.end());
  for (std::size_t i = 1; i < all.size(); ++i)
    ASSERT_LE(all[i - 1].second, all[i].first)
        << "overlapping reservations at index " << i;
  EXPECT_NEAR(r.busy_total(), busy, 1e-6);
  EXPECT_EQ(r.next_free(), all.back().second);
}

TEST(Resource, NextFreeAndBusyVisibleWithoutLock) {
  Resource r;
  EXPECT_DOUBLE_EQ(r.next_free(), 0.0);
  EXPECT_DOUBLE_EQ(r.busy_total(), 0.0);
  r.book(1.0, 2.0);
  EXPECT_DOUBLE_EQ(r.next_free(), 3.0);
  EXPECT_DOUBLE_EQ(r.busy_total(), 2.0);
  r.book(0.0, 0.5);  // fills the gap below 1.0; horizon unchanged
  EXPECT_DOUBLE_EQ(r.next_free(), 3.0);
  EXPECT_DOUBLE_EQ(r.busy_total(), 2.5);
}

TEST(Network, AdvanceFrontierCoversAllResources) {
  MachineModel m = MachineModel::testing(2, 2);
  NetworkState net(m);
  net.nic_out(0).book(0.0, 1.0);
  net.nic_out(0).book(2.0, 1.0);
  net.nic_in(1).book(0.0, 1.0);
  net.domain_mem(0).book(0.0, 1.0);
  net.advance_frontier(3.0);
  // Post-frontier bookings at ready >= watermark still queue correctly.
  EXPECT_DOUBLE_EQ(net.nic_out(0).book(3.0, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(net.nic_in(1).book(3.0, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(net.domain_mem(0).book(3.0, 1.0), 4.0);
}

TEST(Resource, ResetRestoresIdle) {
  Resource r;
  r.book(0.0, 2.0);
  r.reset();
  EXPECT_DOUBLE_EQ(r.next_free(), 0.0);
  EXPECT_DOUBLE_EQ(r.book(0.0, 1.0), 1.0);
}

TEST(Network, PerNodeAndPerDomainResources) {
  MachineModel m = MachineModel::testing(3, 2);
  NetworkState net(m);
  net.nic_out(0).book(0.0, 1.0);
  EXPECT_DOUBLE_EQ(net.nic_out(0).next_free(), 1.0);
  EXPECT_DOUBLE_EQ(net.nic_out(1).next_free(), 0.0);  // independent
  EXPECT_DOUBLE_EQ(net.nic_in(0).next_free(), 0.0);   // full duplex
  net.domain_mem(2).book(0.0, 0.5);
  EXPECT_DOUBLE_EQ(net.domain_mem(2).next_free(), 0.5);
  EXPECT_THROW((void)net.nic_out(3), Error);
  EXPECT_THROW((void)net.domain_mem(5), Error);
}

TEST(Network, SingleDomainMachineHasOneMemResource) {
  MachineModel m = MachineModel::sgi_altix(8);
  NetworkState net(m);
  net.domain_mem(0).book(0.0, 1.0);
  EXPECT_THROW((void)net.domain_mem(1), Error);
}

TEST(TraceCounters, OverlapClampsAndAccumulates) {
  TraceCounters t;
  EXPECT_DOUBLE_EQ(t.overlap(), 1.0);  // no communication: fully hidden
  t.time_comm = 10.0;
  t.time_wait = 1.0;
  EXPECT_DOUBLE_EQ(t.overlap(), 0.9);
  t.time_wait = 20.0;
  EXPECT_DOUBLE_EQ(t.overlap(), 0.0);  // clamped

  TraceCounters a;
  a.bytes_shm = 5;
  a.gets = 2;
  TraceCounters b;
  b.bytes_shm = 7;
  b.gets = 1;
  a += b;
  EXPECT_EQ(a.bytes_shm, 12u);
  EXPECT_EQ(a.gets, 3u);
}

}  // namespace
}  // namespace srumma
