#include "analysis/plan_model.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace srumma::analysis {

namespace {

// Deterministic site selection (splitmix64): mutation placement must be
// reproducible from the seed alone — Date/random sources would make the
// negative tests flaky.
std::uint64_t next_rand(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Would the executor fetch this task's A (resp. B) patch through the copy
/// path?  Mirrors engine::acquire: direct access needs the Direct flavor
/// and a single in-domain owner; everything else posts a get.
bool copies_a(const PlanModel& pm, int rank, const Task& t) {
  return pm.cfg.options.shm_flavor != ShmFlavor::Direct ||
         !pm.a.single_owner_in_domain(pm.cfg.machine, rank, t.a_i0, t.a_j0,
                                      t.a_m, t.a_n)
              .has_value();
}

bool copies_b(const PlanModel& pm, int rank, const Task& t) {
  return pm.cfg.options.shm_flavor != ShmFlavor::Direct ||
         !pm.b.single_owner_in_domain(pm.cfg.machine, rank, t.b_i0, t.b_j0,
                                      t.b_m, t.b_n)
              .has_value();
}

}  // namespace

PlanModel build_plan_model(const AnalysisConfig& cfg) {
  SRUMMA_REQUIRE(cfg.m > 0 && cfg.n > 0 && cfg.k > 0,
                 "analysis: m, n, k must be positive");
  const int nranks = cfg.machine.total_ranks();
  const ProcGrid grid = ProcGrid::near_square(nranks);
  const bool tra = cfg.options.ta == blas::Trans::Yes;
  const bool trb = cfg.options.tb == blas::Trans::Yes;

  PlanModel pm;
  pm.cfg = cfg;
  // Stored shapes: op(A) is m x k, op(B) is k x n (build_task_plan checks
  // conformance of these layouts again).
  pm.a = tra ? MatrixLayout(cfg.k, cfg.m, grid) : MatrixLayout(cfg.m, cfg.k, grid);
  pm.b = trb ? MatrixLayout(cfg.n, cfg.k, grid) : MatrixLayout(cfg.k, cfg.n, grid);
  pm.c = MatrixLayout(cfg.m, cfg.n, grid);

  pm.ranks.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    RankModel rm;
    rm.rank = r;
    rm.tuned = tune_options(r, cfg.machine, pm.a, pm.b, pm.c, cfg.options);
    rm.lookahead = cfg.options.nonblocking ? rm.tuned.lookahead : 0;
    rm.plan = build_task_plan(r, cfg.machine, pm.a, pm.b, pm.c, rm.tuned);
    rm.chains = engine::chain_layout(rm.plan);
    pm.ranks.push_back(std::move(rm));
  }
  return pm;
}

const char* mutation_name(Mutation m) {
  switch (m) {
    case Mutation::DropWait: return "drop-wait";
    case Mutation::ReorderCommit: return "reorder-commit";
    case Mutation::WidenGetWindow: return "widen-get";
    case Mutation::AdoptChain: return "adopt-chain";
  }
  return "?";
}

std::optional<Mutation> mutation_from_name(std::string_view s) {
  if (s == "drop-wait") return Mutation::DropWait;
  if (s == "reorder-commit") return Mutation::ReorderCommit;
  if (s == "widen-get") return Mutation::WidenGetWindow;
  if (s == "adopt-chain") return Mutation::AdoptChain;
  return std::nullopt;
}

std::string mutate_plan(PlanModel& pm, Mutation mut, std::uint64_t seed) {
  std::uint64_t rng = seed ^ 0x5143554d4d41ull;  // decorrelate seed 0
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(next_rand(rng) % n);
  };

  switch (mut) {
    case Mutation::DropWait: {
      // Only a copy-path fetch has a wait to forget; dropping a "wait" on a
      // direct view would be a no-op and the analyzer would rightly stay
      // silent.
      std::vector<std::pair<std::size_t, std::size_t>> sites;  // (rank, task)
      for (std::size_t r = 0; r < pm.ranks.size(); ++r) {
        const std::vector<Task>& tasks = pm.ranks[r].plan.tasks;
        for (std::size_t i = 0; i < tasks.size(); ++i) {
          if (copies_a(pm, static_cast<int>(r), tasks[i]) ||
              copies_b(pm, static_cast<int>(r), tasks[i]))
            sites.emplace_back(r, i);
        }
      }
      SRUMMA_REQUIRE(!sites.empty(),
                     "mutate_plan: no copy-path fetch to drop a wait from "
                     "in this configuration");
      const auto [r, i] = sites[pick(sites.size())];
      pm.ranks[r].dropped_waits.push_back(i);
      return "drop-wait: rank " + std::to_string(r) +
             " skips the operand waits of task " + std::to_string(i);
    }

    case Mutation::ReorderCommit: {
      std::vector<std::pair<std::size_t, std::size_t>> sites;  // (rank, tile)
      for (std::size_t r = 0; r < pm.ranks.size(); ++r) {
        const auto& tiles = pm.ranks[r].chains.tile_tasks;
        for (std::size_t t = 0; t < tiles.size(); ++t)
          if (tiles[t].size() >= 2) sites.emplace_back(r, t);
      }
      SRUMMA_REQUIRE(!sites.empty(),
                     "mutate_plan: no commit chain with two links to reorder "
                     "in this configuration");
      const auto [r, t] = sites[pick(sites.size())];
      std::vector<std::size_t>& chain = pm.ranks[r].chains.tile_tasks[t];
      const std::size_t p = pick(chain.size() - 1);
      std::swap(chain[p], chain[p + 1]);
      return "reorder-commit: rank " + std::to_string(r) + " tile " +
             std::to_string(t) + " swaps chain links " + std::to_string(p) +
             " and " + std::to_string(p + 1);
    }

    case Mutation::WidenGetWindow: {
      const std::size_t r = pick(pm.ranks.size());
      RankModel& rm = pm.ranks[r];
      SRUMMA_REQUIRE(!rm.plan.tasks.empty(),
                     "mutate_plan: rank has no tasks to widen a window of");
      const std::size_t i = pick(rm.plan.tasks.size());
      Task& t = rm.plan.tasks[i];
      // Grow the A window by one stored column/row, staying inside the
      // matrix so the fault models a *mis-sized* get, not an out-of-bounds
      // one (OutOfBounds has its own dynamic diagnostic).
      std::string how;
      if (t.a_j0 + t.a_n < pm.a.n) {
        t.a_n += 1;
        how = "one extra column";
      } else if (t.a_i0 + t.a_m < pm.a.m) {
        t.a_m += 1;
        how = "one extra row";
      } else if (t.a_j0 > 0) {
        t.a_j0 -= 1;
        t.a_n += 1;
        how = "one leading column";
      } else {
        SRUMMA_REQUIRE(t.a_i0 > 0,
                       "mutate_plan: A window already spans the whole matrix");
        t.a_i0 -= 1;
        t.a_m += 1;
        how = "one leading row";
      }
      return "widen-get: rank " + std::to_string(r) + " task " +
             std::to_string(i) + " A window grows by " + how;
    }

    case Mutation::AdoptChain: {
      // Recovery-side fault (docs/FAULTS.md §7): a survivor adopts a dead
      // rank's C tile but replays its commit chain out of plan order —
      // the accumulation order changes, so the recovered tile is no
      // longer bitwise identical to the fault-free run.  Needs a second
      // rank to play the survivor and a chain with two links to swap.
      std::vector<std::pair<std::size_t, std::size_t>> sites;  // (dead, tile)
      for (std::size_t r = 0; r < pm.ranks.size(); ++r) {
        const auto& tiles = pm.ranks[r].chains.tile_tasks;
        for (std::size_t t = 0; t < tiles.size(); ++t)
          if (tiles[t].size() >= 2) sites.emplace_back(r, t);
      }
      SRUMMA_REQUIRE(pm.ranks.size() >= 2 && !sites.empty(),
                     "mutate_plan: adopt-chain needs a surviving rank and a "
                     "dead-rank commit chain with two links");
      const auto [dead, tile] = sites[pick(sites.size())];
      std::size_t adopter = pick(pm.ranks.size() - 1);
      if (adopter >= dead) ++adopter;
      RankModel::AdoptedChain ac;
      ac.dead_rank = static_cast<int>(dead);
      ac.tile = tile;
      ac.task_idxs = pm.ranks[dead].chains.tile_tasks[tile];
      const std::size_t p = pick(ac.task_idxs.size() - 1);
      std::swap(ac.task_idxs[p], ac.task_idxs[p + 1]);
      pm.ranks[adopter].adopted_chains.push_back(std::move(ac));
      return "adopt-chain: rank " + std::to_string(adopter) +
             " adopts dead rank " + std::to_string(dead) + "'s tile " +
             std::to_string(tile) + " chain with links " + std::to_string(p) +
             " and " + std::to_string(p + 1) + " swapped";
    }
  }
  SRUMMA_REQUIRE(false, "mutate_plan: unknown mutation");
  return {};
}

}  // namespace srumma::analysis
