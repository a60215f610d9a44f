// The pooled execution harness (src/runtime/fiber_exec, docs/HARNESS.md):
// fiber-pool primitives and the stack cache, the harness environment
// variables, and the pooled vs thread-per-rank differential.
//
// The differential's exact arms run on MachineModel::testing(2, 1): two
// ranks, one per node, so every modeled resource (per-node NICs, each
// domain's memory system) is booked by exactly one rank and the virtual
// schedule has no first-fit gap competition (docs/MODEL.md §2).  Inside
// that envelope the two execution modes must agree *bitwise* — result
// matrix, every TraceCounters field, and every rank's final virtual
// clock.  On contended machines only the numerics are order-independent,
// so those arms assert bitwise-identical C and leave timings free.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/srumma.hpp"
#include "dist/dist_matrix.hpp"
#include "rma/rma.hpp"
#include "runtime/fiber_exec.hpp"
#include "runtime/team.hpp"
#include "tests/helpers.hpp"
#include "trace/metrics_json.hpp"
#include "util/error.hpp"

namespace srumma {
namespace {

// ---------------------------------------------------------------------------
// Fiber-pool primitives.

TEST(FiberExec, RunsEveryBodyExactlyOnce) {
  std::vector<int> hits(32, 0);
  EXPECT_FALSE(exec::on_fiber());
  exec::run_fibers(32, 1, exec::default_stack_bytes(), [&](int i) {
    EXPECT_TRUE(exec::on_fiber());
    hits[static_cast<std::size_t>(i)]++;
  });
  EXPECT_FALSE(exec::on_fiber());
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(FiberExec, SingleWorkerYieldIsDeterministicRoundRobin) {
  // One worker, yielding fibers: each yield re-enqueues at the tail, so
  // the interleaving is a fixed round-robin — the determinism the pooled
  // differential relies on.
  std::vector<int> order;
  exec::run_fibers(3, 1, exec::default_stack_bytes(), [&](int i) {
    order.push_back(i);
    exec::yield();
    order.push_back(i);
  });
  const std::vector<int> expect = {0, 1, 2, 0, 1, 2};
  EXPECT_EQ(order, expect);
}

TEST(FiberExec, MultiWorkerCompletesAllBodies) {
  std::atomic<int> done{0};
  exec::run_fibers(64, 4, exec::default_stack_bytes(), [&](int) {
    exec::yield();
    done.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(done.load(), 64);
}

TEST(FiberExec, DeepStackUseStaysInsideGuardedStack) {
  // Touch well past a page of stack; the guard page would fault if the
  // fiber were running on a too-small or mismanaged stack.  The second
  // pass runs on the stacks the first one left in the cache.
  for (int pass = 0; pass < 2; ++pass) {
    exec::run_fibers(2, 1, exec::default_stack_bytes(), [&](int i) {
      volatile char probe[16 * 1024];
      probe[0] = static_cast<char>(i);
      probe[sizeof probe - 1] = static_cast<char>(i);
      EXPECT_EQ(probe[0], probe[sizeof probe - 1]);
    });
  }
}

// Writes one byte per page of a kBytes frame, from the top down, so a stack
// with less than kBytes below the caller hits its guard page.
template <std::size_t kBytes>
[[gnu::noinline]] int touch_stack_pages(int seed) {
  volatile char probe[kBytes];
  for (std::size_t off = kBytes; off > 0; off -= 4096)
    probe[off - 1] = static_cast<char>(seed);
  probe[0] = static_cast<char>(seed);
  return probe[0] + probe[kBytes - 1];
}

TEST(FiberExec, StackSizeChangeGetsStacksOfTheNewSize) {
  // A run on 64 KiB stacks fills the cache; a run asking for 1 MiB must
  // not reuse them, or its 512 KiB frames would fault on the guard page.
  const auto shallow = [](int i) {
    EXPECT_EQ(touch_stack_pages<16 * 1024>(i), 2 * i);
  };
  const auto deep = [](int i) {
    EXPECT_EQ(touch_stack_pages<512 * 1024>(i), 2 * i);
  };
  exec::run_fibers(4, 1, 64 * 1024, shallow);
  exec::run_fibers(4, 2, 1024 * 1024, deep);

  // 64 KiB stacks still out when a 1 MiB run starts must not join the
  // cache when they come back.
  std::atomic<int> parked{0};
  std::atomic<bool> release{false};
  std::thread small([&] {
    exec::run_fibers(4, 1, 64 * 1024, [&](int i) {
      parked.fetch_add(1);
      while (!release.load()) exec::yield();
      shallow(i);
    });
  });
  while (parked.load() < 4) std::this_thread::yield();
  exec::run_fibers(4, 1, 1024 * 1024, deep);
  release.store(true);
  small.join();
  exec::run_fibers(8, 1, 1024 * 1024, deep);
}

struct Vma {
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;
  std::string perms;
};

std::vector<Vma> read_maps() {
  std::vector<Vma> out;
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) {
    std::istringstream in(line);
    std::string range;
    Vma v;
    in >> range >> v.perms;
    const std::size_t dash = range.find('-');
    v.lo = std::stoull(range.substr(0, dash), nullptr, 16);
    v.hi = std::stoull(range.substr(dash + 1), nullptr, 16);
    out.push_back(v);
  }
  return out;
}

const Vma* vma_containing(const std::vector<Vma>& maps, std::uintptr_t a) {
  for (const Vma& v : maps)
    if (v.lo <= a && a < v.hi) return &v;
  return nullptr;
}

const Vma* vma_ending_at(const std::vector<Vma>& maps, std::uintptr_t a) {
  for (const Vma& v : maps)
    if (v.hi == a) return &v;
  return nullptr;
}

// Start addresses of the mappings laid out like fiber stacks: read-write,
// directly above a one-page PROT_NONE guard.  Counting these rather than
// all mappings keeps sanitizer shadow bookkeeping out of the comparison.
std::set<std::uintptr_t> guarded_stacks(const std::vector<Vma>& maps,
                                        std::uintptr_t page) {
  std::set<std::uintptr_t> out;
  for (const Vma& v : maps) {
    if (v.perms != "rw-p") continue;
    const Vma* guard = vma_ending_at(maps, v.lo);
    if (guard != nullptr && guard->perms == "---p" &&
        guard->hi - guard->lo == page)
      out.insert(v.lo);
  }
  return out;
}

TEST(FiberExec, StacksStayMappedWithGuardPagesAcrossRuns) {
  // After a run of n fibers the process still maps its n stacks, each
  // directly above a one-page PROT_NONE guard; a second run of n fibers
  // reuses them and adds no stack mapping.
  constexpr int kFibers = 16;
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  std::vector<std::uintptr_t> frames(kFibers);
  const auto record = [&](int i) {
    frames[static_cast<std::size_t>(i)] =
        reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
  };

  exec::run_fibers(kFibers, 1, 256 * 1024, record);
  const std::vector<Vma> first = read_maps();
  const std::set<std::uintptr_t> guarded = guarded_stacks(first, page);
  std::set<std::uintptr_t> used;
  for (std::uintptr_t f : frames) {
    const Vma* stack = vma_containing(first, f);
    ASSERT_NE(stack, nullptr) << "fiber stack was unmapped";
    EXPECT_EQ(guarded.count(stack->lo), 1u)
        << "no one-page PROT_NONE guard directly below the stack";
    used.insert(stack->lo);
  }
  EXPECT_EQ(used.size(), static_cast<std::size_t>(kFibers));

  exec::run_fibers(kFibers, 1, 256 * 1024, record);
  const std::vector<Vma> second = read_maps();
  EXPECT_EQ(guarded_stacks(second, page), guarded);
  for (std::uintptr_t f : frames) {
    const Vma* stack = vma_containing(second, f);
    ASSERT_NE(stack, nullptr);
    EXPECT_EQ(used.count(stack->lo), 1u) << "second run mapped a new stack";
  }
}

// ---------------------------------------------------------------------------
// Team integration.

TEST(HarnessPool, PooledRunMatchesReference) {
  Team team(MachineModel::testing(2, 2));
  team.set_execution(ExecMode::Pooled);
  RmaRuntime rma(team);
  const index_t n = 32;
  const ProcGrid g{2, 2};
  Matrix a_g = testing::coords_matrix(n, n);
  Matrix b_g(n, n);
  fill_random(b_g.view(), 7);
  Matrix c_ref(n, n);
  testing::reference_gemm(blas::Trans::No, blas::Trans::No, 1.0, a_g, b_g,
                          0.0, c_ref);
  Matrix c_out(n, n);
  team.run([&](Rank& me) {
    DistMatrix a(rma, me, n, n, g);
    DistMatrix b(rma, me, n, n, g);
    DistMatrix c(rma, me, n, n, g);
    a.scatter_from(me, a_g.view());
    b.scatter_from(me, b_g.view());
    (void)srumma_multiply(me, a, b, c, {});
    c.gather_to(me, c_out.view());
  });
  EXPECT_LE(max_abs_diff(c_out.view(), c_ref.view()),
            testing::gemm_tolerance(n));
}

TEST(HarnessPool, ExplicitWorkerCountsAllComplete) {
  for (int workers : {1, 2, 5}) {
    Team team(MachineModel::testing(2, 2));
    team.set_execution(ExecMode::Pooled, workers);
    std::atomic<int> ran{0};
    team.run([&](Rank& me) {
      me.barrier();
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), 4) << workers << " workers";
  }
}

TEST(HarnessPool, AbortPropagatesAcrossParkedFibers) {
  // A rank throwing while its peers are parked at a barrier must wake
  // them and rethrow at the Team::run call site — the same contract the
  // thread-per-rank mode has always had.  Fibers that finished by throwing
  // or were parked when the abort came hand their stacks back, and the
  // second pass runs on them.
  Team team(MachineModel::testing(2, 2));
  team.set_execution(ExecMode::Pooled);
  for (int pass = 0; pass < 2; ++pass) {
    EXPECT_THROW(team.run([&](Rank& me) {
      if (me.id() == 2) throw Error("rank 2 failed");
      me.barrier();
    }),
                 Error);
    EXPECT_TRUE(team.aborted());
    team.reset();
    EXPECT_FALSE(team.aborted());
  }
}

TEST(HarnessPool, ConcurrentPooledTeamsShareTheStackCache) {
  // Four OS threads (the ranks of a thread-per-rank team) each run their
  // own pooled 8-rank team at once: barriers and a small multiply.  Their
  // run_fibers calls take and return stacks concurrently.
  Team outer(MachineModel::testing(4, 1));
  outer.set_execution(ExecMode::Threads);
  const index_t n = 32;
  Matrix a_g = testing::coords_matrix(n, n);
  Matrix b_g(n, n);
  fill_random(b_g.view(), 11);
  Matrix c_ref(n, n);
  testing::reference_gemm(blas::Trans::No, blas::Trans::No, 1.0, a_g, b_g,
                          0.0, c_ref);
  std::vector<double> err(4, -1.0);
  outer.run([&](Rank& om) {
    om.barrier();  // start the inner runs together
    for (int round = 0; round < 3; ++round) {
      Team inner(MachineModel::testing(4, 2));
      inner.set_execution(ExecMode::Pooled, 2);
      RmaRuntime rma(inner);
      const ProcGrid g = ProcGrid::near_square(inner.size());
      Matrix c_out(n, n);
      inner.run([&](Rank& me) {
        for (int b = 0; b < 4; ++b) me.barrier();
        DistMatrix a(rma, me, n, n, g);
        DistMatrix b(rma, me, n, n, g);
        DistMatrix c(rma, me, n, n, g);
        a.scatter_from(me, a_g.view());
        b.scatter_from(me, b_g.view());
        (void)srumma_multiply(me, a, b, c, {});
        c.gather_to(me, c_out.view());
      });
      err[static_cast<std::size_t>(om.id())] = std::max(
          err[static_cast<std::size_t>(om.id())],
          max_abs_diff(c_out.view(), c_ref.view()));
    }
  });
  for (double e : err) {
    EXPECT_GE(e, 0.0);
    EXPECT_LE(e, testing::gemm_tolerance(n));
  }
}

TEST(HarnessPool, NestedRunFallsBackToThreads) {
  // A Team::run issued from inside a fiber (the request plane does this)
  // must not recurse into the fiber pool.
  Team outer(MachineModel::testing(1, 2));
  outer.set_execution(ExecMode::Pooled);
  std::atomic<int> inner_ran{0};
  outer.run([&](Rank& me) {
    if (me.id() == 0) {
      Team inner(MachineModel::testing(1, 2));
      inner.set_execution(ExecMode::Pooled);  // overridden by the guard
      inner.run([&](Rank& im) {
        im.barrier();
        inner_ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
    me.barrier();
  });
  EXPECT_EQ(inner_ran.load(), 2);
}

// ---------------------------------------------------------------------------
// Harness environment variables: a malformed value throws from Team::run.

// Sets an environment variable for one scope, then restores the old value.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (saved_) {
      setenv(name_, saved_->c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

// The srumma::Error message an empty run throws, or "" when it succeeds.
std::string run_error(Team& team) {
  try {
    team.run([](Rank&) {});
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(HarnessEnv, RejectsUnknownHarnessMode) {
  Team team(MachineModel::testing(1, 2));
  for (const char* bad : {"thread", "Pooled", ""}) {
    ScopedEnv env("SRUMMA_HARNESS", bad);
    const std::string msg = run_error(team);
    EXPECT_NE(msg.find("SRUMMA_HARNESS='" + std::string(bad) + "'"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("pooled or threads"), std::string::npos) << msg;
  }
  for (const char* ok : {"pooled", "threads"}) {
    ScopedEnv env("SRUMMA_HARNESS", ok);
    EXPECT_EQ(run_error(team), "") << ok;
  }
}

TEST(HarnessEnv, RejectsOutOfRangeWorkerCount) {
  Team team(MachineModel::testing(1, 2));
  team.set_execution(ExecMode::Pooled);
  for (const char* bad : {"0", "4097", "-1", "two", "3x", ""}) {
    ScopedEnv env("SRUMMA_HARNESS_THREADS", bad);
    const std::string msg = run_error(team);
    EXPECT_NE(msg.find("SRUMMA_HARNESS_THREADS='" + std::string(bad) + "'"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("[1, 4096]"), std::string::npos) << msg;
  }
  for (const char* ok : {"1", "4096"}) {
    ScopedEnv env("SRUMMA_HARNESS_THREADS", ok);
    EXPECT_EQ(run_error(team), "") << ok;
  }
}

TEST(HarnessEnv, RejectsOutOfRangeStackSize) {
  Team team(MachineModel::testing(1, 2));
  team.set_execution(ExecMode::Pooled);
  for (const char* bad : {"63", "65537", "512k", ""}) {
    ScopedEnv env("SRUMMA_HARNESS_STACK_KB", bad);
    const std::string msg = run_error(team);
    EXPECT_NE(msg.find("SRUMMA_HARNESS_STACK_KB='" + std::string(bad) + "'"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("[64, 65536]"), std::string::npos) << msg;
  }
  for (const char* ok : {"64", "65536"}) {
    ScopedEnv env("SRUMMA_HARNESS_STACK_KB", ok);
    EXPECT_EQ(run_error(team), "") << ok;
  }
}

// ---------------------------------------------------------------------------
// The pooled vs thread-per-rank differential.

struct ModeRun {
  Matrix c;
  std::string counters;        ///< counters_json of the aggregated trace
  std::vector<double> clocks;  ///< per-rank final virtual clocks
  ModeRun() : c(0, 0) {}
};

struct DiffConfig {
  bool engine = false;
  bool cache = false;
  bool faults = false;
  [[nodiscard]] std::string label() const {
    return std::string(engine ? "engine" : "pipeline") +
           (cache ? "+cache" : "") + (faults ? "+faults" : "");
  }
};

ModeRun run_mode(const MachineModel& machine, ExecMode mode,
                 const DiffConfig& cfg, index_t n) {
  Team team(machine);
  team.set_execution(mode);
  RmaConfig rc;
  rc.cache = cfg.cache;
  if (cfg.faults) {
    fault::FaultConfig f;
    f.fail_rate = 0.02;
    f.delay_rate = 0.02;
    rc.faults = f;
    RetryPolicy retry;
    retry.max_attempts = 20;
    rc.retry = retry;
  }
  RmaRuntime rma(team, rc);
  const ProcGrid g = ProcGrid::near_square(team.size());
  Matrix a_g = testing::coords_matrix(n, n);
  Matrix b_g(n, n);
  fill_random(b_g.view(), 41);

  ModeRun out;
  out.c = Matrix(n, n);
  out.clocks.assign(static_cast<std::size_t>(team.size()), 0.0);
  SrummaOptions opt;
  opt.engine = cfg.engine ? EngineMode::On : EngineMode::Off;
  MultiplyResult result;
  team.run([&](Rank& me) {
    DistMatrix a(rma, me, n, n, g);
    DistMatrix b(rma, me, n, n, g);
    DistMatrix c(rma, me, n, n, g);
    a.scatter_from(me, a_g.view());
    b.scatter_from(me, b_g.view());
    MultiplyResult r = srumma_multiply(me, a, b, c, opt);
    if (me.id() == 0) result = r;
    c.gather_to(me, out.c.view());
    out.clocks[static_cast<std::size_t>(me.id())] = me.clock().now();
  });
  out.counters = trace::counters_json(result.trace);
  return out;
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(double) * static_cast<std::size_t>(a.rows()) *
                         static_cast<std::size_t>(a.cols())) == 0;
}

class HarnessDifferential : public ::testing::TestWithParam<DiffConfig> {};

// Exact arm: contention-free machine, so pooled and thread-per-rank must
// agree on everything — bitwise C, every counter, every final clock.
TEST_P(HarnessDifferential, ExactOnContentionFreeMachine) {
  const DiffConfig cfg = GetParam();
  const MachineModel machine = MachineModel::testing(2, 1);
  const index_t n = 48;
  const ModeRun pooled = run_mode(machine, ExecMode::Pooled, cfg, n);
  const ModeRun threads = run_mode(machine, ExecMode::Threads, cfg, n);
  EXPECT_TRUE(bitwise_equal(pooled.c, threads.c)) << cfg.label();
  EXPECT_EQ(pooled.counters, threads.counters) << cfg.label();
  ASSERT_EQ(pooled.clocks.size(), threads.clocks.size());
  for (std::size_t i = 0; i < pooled.clocks.size(); ++i) {
    EXPECT_EQ(pooled.clocks[i], threads.clocks[i])
        << cfg.label() << " rank " << i;
  }
}

// Contended arm: a dual-rank-per-node cluster shares NICs and memory
// systems, so modeled timings are deterministic only up to first-fit
// booking order — but the numerics must stay bitwise identical in every
// mode (the engine commits handed-back tiles at exact plan positions).
TEST_P(HarnessDifferential, NumericsExactOnContendedMachine) {
  const DiffConfig cfg = GetParam();
  const MachineModel machine = MachineModel::linux_myrinet(2);
  const index_t n = 48;
  const ModeRun pooled = run_mode(machine, ExecMode::Pooled, cfg, n);
  const ModeRun threads = run_mode(machine, ExecMode::Threads, cfg, n);
  EXPECT_TRUE(bitwise_equal(pooled.c, threads.c)) << cfg.label();
}

std::vector<DiffConfig> diff_configs() {
  std::vector<DiffConfig> out;
  for (bool engine : {false, true}) {
    for (bool cache : {false, true}) {
      for (bool faults : {false, true}) {
        out.push_back({engine, cache, faults});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, HarnessDifferential,
                         ::testing::ValuesIn(diff_configs()),
                         [](const auto& param_info) {
                           std::string name = param_info.param.label();
                           for (char& ch : name) {
                             if (ch == '+') ch = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace srumma
