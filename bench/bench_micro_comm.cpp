// Micro-benchmark (google-benchmark): real host-time overheads of the
// simulation substrate itself — how fast the harness can issue RMA ops,
// match messages, book contended resources, run barriers, start a team,
// reduce a multiply's result and plan a multiply.  These bound how large a
// simulated machine the benches can afford.
//
// Where an op needs two ranks, each benchmark iteration runs a fixed-count
// batch inside one Team::run (fiber and worker set-up included — it is part
// of the harness cost being measured); per-op cost = iteration time / batch
// size.

#include <benchmark/benchmark.h>

#include "core/task_plan.hpp"
#include "msg/comm.hpp"
#include "rma/rma.hpp"
#include "runtime/team.hpp"
#include "trace/report.hpp"
#include "vtime/resource.hpp"

namespace {

using namespace srumma;

constexpr int kBatch = 1024;

void BM_ResourceBook(benchmark::State& state) {
  Resource r;
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.book(t, 1e-6));
    t += 5e-7;
  }
}
BENCHMARK(BM_ResourceBook);

// One Resource booked from 2 and 3 threads at once, as the two ranks of a
// node running on different harness workers book their shared NIC: each
// thread books back to back from its own last completion, so the cost is
// the lock hand-off and the cache-line traffic, not the interval search.
void BM_ResourceBookContended(benchmark::State& state) {
  static Resource r;
  if (state.thread_index() == 0) r.reset();  // before the threads start
  double ready = 0.0;
  for (auto _ : state) benchmark::DoNotOptimize(ready = r.book(ready, 1e-6));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ResourceBookContended)->Threads(2)->Threads(3)->UseRealTime();

void BM_RmaGetBatch(benchmark::State& state) {
  Team team(MachineModel::testing(2, 1));
  RmaRuntime rma(team);
  for (auto _ : state) {
    team.reset();
    team.run([&](Rank& me) {
      if (me.id() != 0) return;
      for (int i = 0; i < kBatch; ++i) {
        RmaHandle h = rma.nbget(me, 1, nullptr, nullptr, 1024);
        rma.wait(me, h);
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_RmaGetBatch);

void BM_MsgSendRecvBatch(benchmark::State& state) {
  Team team(MachineModel::testing(2, 1));
  Comm comm(team);
  for (auto _ : state) {
    team.reset();
    team.run([&](Rank& me) {
      if (me.id() == 0) {
        for (int i = 0; i < kBatch; ++i) comm.send(me, 1, 1, nullptr, 16);
      } else {
        for (int i = 0; i < kBatch; ++i) comm.recv(me, 0, 1, nullptr, 16);
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_MsgSendRecvBatch);

void BM_RendezvousExchangeBatch(benchmark::State& state) {
  Team team(MachineModel::testing(2, 1));
  Comm comm(team);
  constexpr int kRvBatch = 64;
  constexpr std::size_t kElems = 8192;  // 64 KB: rendezvous path
  for (auto _ : state) {
    team.reset();
    team.run([&](Rank& me) {
      const int peer = 1 - me.id();
      for (int i = 0; i < kRvBatch; ++i) {
        comm.sendrecv(me, peer, 1, nullptr, kElems, peer, 1, nullptr, kElems);
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * kRvBatch);
}
BENCHMARK(BM_RendezvousExchangeBatch);

void BM_BarrierBatch(benchmark::State& state) {
  Team team(MachineModel::testing(4, 1));
  for (auto _ : state) {
    team.reset();
    team.run([&](Rank& me) {
      for (int i = 0; i < kBatch; ++i) me.barrier();
    });
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_BarrierBatch);

void BM_TeamSpawn128(benchmark::State& state) {
  Team team(MachineModel::linux_myrinet(64));  // 128 rank fibers
  for (auto _ : state) {
    team.reset();
    team.run([](Rank& me) { me.barrier(); });
  }
}
BENCHMARK(BM_TeamSpawn128);

// The per-run harness cost at the e2e benchmark's 1024-rank scale: fiber
// set-up and tear-down plus worker spawn, with nothing to simulate.  One
// untimed run first, so the timed runs see a warm process.
void BM_TeamRunEmpty1024(benchmark::State& state) {
  Team team(MachineModel::linux_myrinet(512));
  team.run([](Rank&) {});
  for (auto _ : state) team.run([](Rank&) {});
}
BENCHMARK(BM_TeamRunEmpty1024)->Unit(benchmark::kMillisecond);

// A multiply's collective epilogue at the e2e benchmark's 1024-rank scale:
// collect_result's three barriers and its trace-board reduction, one
// Team::run per iteration (fiber set-up included, as above).
void BM_CollectResult1024(benchmark::State& state) {
  Team team(MachineModel::linux_myrinet(512));
  team.run([](Rank&) {});
  for (auto _ : state) {
    team.reset();
    team.run([](Rank& me) {
      const TraceCounters start = me.trace();
      benchmark::DoNotOptimize(
          collect_result(me, me.clock().now(), start, 1.0));
    });
  }
}
BENCHMARK(BM_CollectResult1024)->Unit(benchmark::kMillisecond);

// Planning for one multiply of the e2e benchmark's scale1024_phantom
// configuration (linux_myrinet(512), N = 16000, default options): every
// rank's tune_options + build_task_plan, run serially.
void BM_BuildTaskPlan1024(benchmark::State& state) {
  const MachineModel mm = MachineModel::linux_myrinet(512);
  const index_t n = 16000;
  const MatrixLayout l(n, n, ProcGrid::near_square(mm.total_ranks()));
  const SrummaOptions opt;
  for (auto _ : state) {
    for (int r = 0; r < mm.total_ranks(); ++r) {
      TaskPlan plan =
          build_task_plan(r, mm, l, l, l, tune_options(r, mm, l, l, l, opt));
      benchmark::DoNotOptimize(plan);
    }
  }
}
BENCHMARK(BM_BuildTaskPlan1024)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
