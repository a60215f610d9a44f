#include "analysis/analyzer.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <utility>

#include "trace/json.hpp"
#include "util/error.hpp"

namespace srumma::analysis {

namespace {

std::uint64_t patch_bytes(index_t pm, index_t pn) {
  return static_cast<std::uint64_t>(pm) * static_cast<std::uint64_t>(pn) *
         sizeof(double);
}

std::string task_str(const Task& t) {
  return "C(" + std::to_string(t.ci) + "," + std::to_string(t.cj) + " " +
         std::to_string(t.cm) + "x" + std::to_string(t.cn) + ") k[" +
         std::to_string(t.k0) + "," + std::to_string(t.k0 + t.kk) + ")";
}

void add(std::vector<Finding>& out, FindingKind kind,
         std::optional<check::Diag> diag, int rank, std::ptrdiff_t task,
         std::string msg) {
  out.push_back(Finding{kind, diag, rank, task, std::move(msg)});
}

// ---------------------------------------------------------------------------
// 1. Plan shape & epoch-safety premises.
//
// Every get window must equal the footprint its task needs (C-tile rows x
// K-segment for A, K-segment x C-tile cols for B, transposition applied),
// stay inside the operand, and carry locality flags that match a fresh
// ownership recomputation.  C tiles must partition the rank's own block —
// combined with the disjointness of the block distribution itself this is
// exactly why no two ranks' compute writes can ever overlap, i.e. why the
// dynamic checker's EpochConflict can never fire on a clean plan (A and B
// are read-only for the whole multiply; the only writes are C tiles).
// ---------------------------------------------------------------------------

void check_plan_shape(const PlanModel& pm, const RankModel& rm,
                      std::vector<Finding>& out) {
  const MachineModel& mm = pm.cfg.machine;
  const bool tra = pm.cfg.options.ta == blas::Trans::Yes;
  const bool trb = pm.cfg.options.tb == blas::Trans::Yes;
  const index_t k = rm.plan.k_total;
  const index_t r0 = pm.c.block_row_start(rm.rank);
  const index_t c0 = pm.c.block_col_start(rm.rank);
  const index_t cm_all = pm.c.block_rows(rm.rank);
  const index_t cn_all = pm.c.block_cols(rm.rank);

  for (std::size_t i = 0; i < rm.plan.tasks.size(); ++i) {
    const Task& t = rm.plan.tasks[i];
    const auto idx = static_cast<std::ptrdiff_t>(i);

    // C tile inside my own block (the write side of epoch safety).
    if (t.ci < 0 || t.cj < 0 || t.cm <= 0 || t.cn <= 0 ||
        t.ci + t.cm > cm_all || t.cj + t.cn > cn_all) {
      add(out, FindingKind::EpochSafety, check::Diag::EpochConflict, rm.rank,
          idx,
          "task " + task_str(t) + " writes outside rank " +
              std::to_string(rm.rank) + "'s C block (" +
              std::to_string(cm_all) + "x" + std::to_string(cn_all) + ")");
      continue;
    }
    if (t.k0 < 0 || t.kk <= 0 || t.k0 + t.kk > k) {
      add(out, FindingKind::PlanShape, std::nullopt, rm.rank, idx,
          "task " + task_str(t) + " has a K segment outside [0, " +
              std::to_string(k) + ")");
      continue;
    }

    // Expected windows from the tile and segment alone.
    const index_t gi = r0 + t.ci;
    const index_t gj = c0 + t.cj;
    index_t ea_i0 = gi, ea_j0 = t.k0, ea_m = t.cm, ea_n = t.kk;
    if (tra) { ea_i0 = t.k0; ea_j0 = gi; ea_m = t.kk; ea_n = t.cm; }
    index_t eb_i0 = t.k0, eb_j0 = gj, eb_m = t.kk, eb_n = t.cn;
    if (trb) { eb_i0 = gj; eb_j0 = t.k0; eb_m = t.cn; eb_n = t.kk; }

    if (t.a_i0 != ea_i0 || t.a_j0 != ea_j0 || t.a_m != ea_m ||
        t.a_n != ea_n) {
      // Note: a mis-sized window that stays inside the matrix is a *legal*
      // RMA get — no dynamic diagnostic fires.  Only the static model
      // catches it (wrong bytes under the dgemm, silently wrong C).
      add(out, FindingKind::PlanShape, std::nullopt, rm.rank, idx,
          "task " + task_str(t) + " A window [" + std::to_string(t.a_i0) +
              "," + std::to_string(t.a_j0) + " " + std::to_string(t.a_m) +
              "x" + std::to_string(t.a_n) + "] differs from the derived " +
              "footprint [" + std::to_string(ea_i0) + "," +
              std::to_string(ea_j0) + " " + std::to_string(ea_m) + "x" +
              std::to_string(ea_n) + "] — no dynamic diagnostic would fire");
      continue;
    }
    if (t.b_i0 != eb_i0 || t.b_j0 != eb_j0 || t.b_m != eb_m ||
        t.b_n != eb_n) {
      add(out, FindingKind::PlanShape, std::nullopt, rm.rank, idx,
          "task " + task_str(t) + " B window differs from its derived " +
              "K-segment x C-cols footprint — no dynamic diagnostic fires");
      continue;
    }

    // Window bounds (the OutOfBounds premise).
    if (t.a_i0 + t.a_m > pm.a.m || t.a_j0 + t.a_n > pm.a.n ||
        t.b_i0 + t.b_m > pm.b.m || t.b_j0 + t.b_n > pm.b.n ||
        t.a_i0 < 0 || t.a_j0 < 0 || t.b_i0 < 0 || t.b_j0 < 0) {
      add(out, FindingKind::EpochSafety, check::Diag::OutOfBounds, rm.rank,
          idx, "task " + task_str(t) + " get window leaves the operand");
      continue;
    }

    // Locality flags drive ordering and cache routing;
    // recompute them from the layouts.
    const bool a_in = pm.a.rect_in_domain(mm, rm.rank, t.a_i0, t.a_j0, t.a_m,
                                          t.a_n);
    const bool b_in = pm.b.rect_in_domain(mm, rm.rank, t.b_i0, t.b_j0, t.b_m,
                                          t.b_n);
    if (a_in != t.a_in_domain || b_in != t.b_in_domain) {
      add(out, FindingKind::PlanShape, std::nullopt, rm.rank, idx,
          "task " + task_str(t) + " locality flags (a=" +
              std::to_string(static_cast<int>(t.a_in_domain)) + ",b=" +
              std::to_string(static_cast<int>(t.b_in_domain)) +
              ") disagree with the ownership map (a=" +
              std::to_string(static_cast<int>(a_in)) + ",b=" +
              std::to_string(static_cast<int>(b_in)) + ")");
    }
    if (t.a_owner != pm.a.owner(t.a_i0, t.a_j0) ||
        t.b_owner != pm.b.owner(t.b_i0, t.b_j0)) {
      add(out, FindingKind::PlanShape, std::nullopt, rm.rank, idx,
          "task " + task_str(t) + " records the wrong patch owner");
    }
  }

  // Tile / K-segment partition of the rank's block x [0, k): full coverage
  // with no duplicates means the plan computes each C element's complete
  // k-sum exactly once.
  if (cm_all > 0 && cn_all > 0 && k > 0) {
    std::map<std::pair<index_t, index_t>, std::vector<std::pair<index_t, index_t>>>
        tiles;  // (ci, cj) -> sorted (k0, kk)
    std::map<index_t, index_t> ci_ext;
    std::map<index_t, index_t> cj_ext;
    bool dup = false;
    for (const Task& t : rm.plan.tasks) {
      tiles[{t.ci, t.cj}].emplace_back(t.k0, t.kk);
      const auto [ri, fresh_i] = ci_ext.emplace(t.ci, t.cm);
      if (!fresh_i && ri->second != t.cm) dup = true;
      const auto [rj, fresh_j] = cj_ext.emplace(t.cj, t.cn);
      if (!fresh_j && rj->second != t.cn) dup = true;
    }
    if (dup) {
      add(out, FindingKind::PlanShape, std::nullopt, rm.rank, -1,
          "inconsistent tile extents across tasks sharing a tile origin");
    }
    const auto check_axis = [&](const std::map<index_t, index_t>& ext,
                                index_t total, const char* axis) {
      index_t at = 0;
      for (const auto& [start, len] : ext) {
        if (start != at) {
          add(out, FindingKind::PlanShape, std::nullopt, rm.rank, -1,
              std::string("C-tile ") + axis + " axis leaves a gap at " +
                  std::to_string(at));
          return;
        }
        at += len;
      }
      if (at != total)
        add(out, FindingKind::PlanShape, std::nullopt, rm.rank, -1,
            std::string("C-tile ") + axis + " axis covers " +
                std::to_string(at) + " of " + std::to_string(total));
    };
    check_axis(ci_ext, cm_all, "row");
    check_axis(cj_ext, cn_all, "col");
    if (tiles.size() != ci_ext.size() * cj_ext.size())
      add(out, FindingKind::PlanShape, std::nullopt, rm.rank, -1,
          "tile grid is not the full row x col cross product");
    for (auto& [tile, segs] : tiles) {
      std::sort(segs.begin(), segs.end());
      index_t at = 0;
      bool bad = false;
      for (const auto& [k0, kk] : segs) {
        if (k0 != at) { bad = true; break; }
        at += kk;
      }
      if (bad || at != k)
        add(out, FindingKind::PlanShape, std::nullopt, rm.rank, -1,
            "tile (" + std::to_string(tile.first) + "," +
                std::to_string(tile.second) +
                ") K segments do not partition [0, " + std::to_string(k) +
                ")");
    }
  }
}

// ---------------------------------------------------------------------------
// 2. Executor replay.
//
// Re-executes engine::run_plan on metadata alone, in plan order, for one
// operand lifetime: the issue window and its buffer-budget hold-back, slot
// sharing, release just before a fetch, copy-path bytes and cache-pin
// lifetimes.  Proves that on a clean plan no buffer is read or re-targeted
// while its get is pending and no handle crosses the final barrier
// unwaited — the static counterpart of the UseBeforeWait /
// UnwaitedAtBarrier diagnostics — and computes the exact clean-run
// footprint, which the ResourceBound check compares to the closed-form
// ceiling and tests compare to a real run's buffer_bytes_peak.
// ---------------------------------------------------------------------------

ReplayPeak replay(const PlanModel& pm, const RankModel& rm, bool plan_lifetime,
                  std::vector<Finding>& out) {
  const MachineModel& mm = pm.cfg.machine;
  const std::vector<Task>& tasks = rm.plan.tasks;
  const std::size_t n_tasks = tasks.size();
  const std::size_t lookahead = static_cast<std::size_t>(rm.lookahead);
  const std::size_t window = lookahead + 1;
  const std::uint64_t budget = rm.tuned.max_buffer_bytes;
  const std::set<std::size_t> dropped(rm.dropped_waits.begin(),
                                      rm.dropped_waits.end());
  const bool share = rm.tuned.ordering.a_reuse;
  std::vector<std::uint8_t> later;
  if (share && plan_lifetime) later = engine::later_reads(rm.plan);
  const std::string lifetime =
      plan_lifetime ? "plan lifetime: " : "window lifetime: ";

  struct SimSlot {
    bool is_a = false;
    index_t i0 = -1, j0 = -1, m = -1, n = -1;
    bool live = false;
    bool keep = false;
    int readers = 0;
    bool pending = false;
    bool pinned = false;
    std::uint64_t bytes = 0;
    std::size_t src = 0;  ///< task whose issue left it pending
  };
  std::vector<SimSlot> slots;
  std::vector<std::array<std::size_t, 2>> held(window);
  std::uint64_t live = 0;
  std::size_t pins = 0;
  ReplayPeak peak;

  const auto unpin = [&](SimSlot& s) {
    if (s.pinned) { s.pinned = false; --pins; }
  };
  const auto find = [&](bool is_a, const Task& t) -> std::ptrdiff_t {
    if (!share) return -1;
    const index_t i0 = is_a ? t.a_i0 : t.b_i0;
    const index_t j0 = is_a ? t.a_j0 : t.b_j0;
    const index_t pmi = is_a ? t.a_m : t.b_m;
    const index_t pnj = is_a ? t.a_n : t.b_n;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const SimSlot& s = slots[i];
      if (s.live && s.is_a == is_a && s.i0 == i0 && s.j0 == j0 &&
          s.m == pmi && s.n == pnj)
        return static_cast<std::ptrdiff_t>(i);
    }
    return -1;
  };
  const auto release = [&](SimSlot& s) {
    if (s.pending) {
      add(out, FindingKind::Executor, check::Diag::UseBeforeWait, rm.rank,
          static_cast<std::ptrdiff_t>(s.src),
          lifetime + "a slot whose get (task " + std::to_string(s.src) +
              ") was never waited is released for re-targeting");
      unpin(s);
    }
    live -= s.bytes;
    s = SimSlot{};
  };
  const auto fetch_new = [&](bool is_a, const Task& t, std::size_t src) {
    std::size_t i = 0;
    while (i < slots.size() && slots[i].live) ++i;
    if (i == slots.size()) slots.emplace_back();
    SimSlot& s = slots[i];
    const MatrixLayout& lay = is_a ? pm.a : pm.b;
    s.is_a = is_a;
    s.i0 = is_a ? t.a_i0 : t.b_i0;
    s.j0 = is_a ? t.a_j0 : t.b_j0;
    s.m = is_a ? t.a_m : t.b_m;
    s.n = is_a ? t.a_n : t.b_n;
    s.live = true;
    s.src = src;
    // Mirrors engine::acquire: direct access needs the Direct flavor and a
    // single in-domain owner; everything else posts a get.
    const bool direct =
        pm.cfg.options.shm_flavor == ShmFlavor::Direct &&
        lay.single_owner_in_domain(mm, rm.rank, s.i0, s.j0, s.m, s.n)
            .has_value();
    if (direct) return i;
    s.pending = true;
    s.bytes = patch_bytes(s.m, s.n);
    live += s.bytes;
    peak.bytes = std::max(peak.bytes, live);
    // The cooperative cache routes out-of-domain fetches only; its pin
    // lives until the slot's first reader settles it.
    if (!lay.rect_in_domain(mm, rm.rank, s.i0, s.j0, s.m, s.n)) {
      s.pinned = true;
      ++pins;
      peak.pins = std::max<std::uint64_t>(peak.pins, pins);
    }
    return i;
  };

  std::size_t next = 0;
  for (std::size_t head = 0; head < n_tasks; ++head) {
    while (next < n_tasks && next <= head + lookahead) {
      const Task& t = tasks[next];
      std::ptrdiff_t sa = find(true, t);
      std::ptrdiff_t sb = find(false, t);
      const auto idle = [&](std::size_t i) {
        const auto si = static_cast<std::ptrdiff_t>(i);
        return slots[i].live && slots[i].readers == 0 && si != sa && si != sb;
      };
      for (std::size_t i = 0; i < slots.size(); ++i)
        if (idle(i) && !slots[i].keep) release(slots[i]);
      if (budget > 0) {
        std::uint64_t add = 0;
        if (sa < 0) add += patch_bytes(t.a_m, t.a_n);
        if (sb < 0) add += patch_bytes(t.b_m, t.b_n);
        const auto over = [&] { return live + add > budget; };
        for (std::size_t i = 0; i < slots.size() && over(); ++i)
          if (idle(i) && slots[i].bytes > 0) release(slots[i]);
        if (over() && next > head) break;
      }
      if (sa < 0) sa = static_cast<std::ptrdiff_t>(fetch_new(true, t, next));
      if (sb < 0) sb = static_cast<std::ptrdiff_t>(fetch_new(false, t, next));
      std::array<std::size_t, 2>& h = held[next % window];
      h = {static_cast<std::size_t>(sa), static_cast<std::size_t>(sb)};
      for (const std::size_t si : h) slots[si].readers += 1;
      ++next;
    }
    const std::array<std::size_t, 2>& h = held[head % window];
    for (const std::size_t si : h) {
      SimSlot& s = slots[si];
      if (!s.pending) continue;
      if (dropped.count(head) != 0) {
        add(out, FindingKind::Executor, check::Diag::UseBeforeWait, rm.rank,
            static_cast<std::ptrdiff_t>(head),
            lifetime + "dgemm of task " + std::to_string(head) +
                " reads a buffer whose get was never waited (seeded "
                "drop-wait)");
        continue;  // wait skipped: the slot stays pending
      }
      s.pending = false;
      unpin(s);
    }
    const std::uint8_t again = later.empty() ? 0 : later[head];
    slots[h[0]].readers -= 1;
    slots[h[0]].keep = (again & engine::kLaterA) != 0;
    slots[h[1]].readers -= 1;
    slots[h[1]].keep = (again & engine::kLaterB) != 0;
  }

  for (const SimSlot& s : slots)
    if (s.live && s.pending)
      add(out, FindingKind::Executor, check::Diag::UnwaitedAtBarrier, rm.rank,
          static_cast<std::ptrdiff_t>(s.src),
          lifetime + "get issued by task " + std::to_string(s.src) +
              " crosses the collect_result barrier unwaited");
  return peak;
}

// ---------------------------------------------------------------------------
// 3. Commit-chain consistency.
//
// chain_layout groups the plan by C tile with positions in plan order, and
// recovery adopts a dead rank's work chain by chain.  Verifying that
// task_tile / task_pos and tile_tasks agree — every task exactly once,
// positions strictly in plan order, tiles homogeneous — establishes that
// an adopted chain replays its tile's products in the order the owner
// would have committed them (docs/ANALYSIS.md §2).
// ---------------------------------------------------------------------------

void check_chains(const RankModel& rm, std::vector<Finding>& out) {
  const std::size_t n_tasks = rm.plan.tasks.size();
  const engine::ChainLayout& ch = rm.chains;
  if (ch.task_tile.size() != n_tasks || ch.task_pos.size() != n_tasks) {
    add(out, FindingKind::CommitChain, std::nullopt, rm.rank, -1,
        "chain arrays do not cover the plan");
    return;
  }
  std::vector<int> seen(n_tasks, 0);
  for (std::size_t tile = 0; tile < ch.tile_tasks.size(); ++tile) {
    const std::vector<std::size_t>& chain = ch.tile_tasks[tile];
    std::size_t prev = 0;
    for (std::size_t p = 0; p < chain.size(); ++p) {
      const std::size_t idx = chain[p];
      if (idx >= n_tasks) {
        add(out, FindingKind::CommitChain, std::nullopt, rm.rank, -1,
            "chain of tile " + std::to_string(tile) +
                " references task " + std::to_string(idx) + " out of range");
        continue;
      }
      seen[idx] += 1;
      if (ch.task_tile[idx] != static_cast<int>(tile) ||
          ch.task_pos[idx] != static_cast<int>(p))
        add(out, FindingKind::CommitChain, std::nullopt, rm.rank,
            static_cast<std::ptrdiff_t>(idx),
            "task " + std::to_string(idx) + " sits at position " +
                std::to_string(p) + " of tile " + std::to_string(tile) +
                "'s chain but records (tile " +
                std::to_string(ch.task_tile[idx]) + ", pos " +
                std::to_string(ch.task_pos[idx]) +
                ") — the chain and its own index disagree");
      if (p > 0 && idx <= prev)
        add(out, FindingKind::CommitChain, std::nullopt, rm.rank,
            static_cast<std::ptrdiff_t>(idx),
            "tile " + std::to_string(tile) +
                "'s chain is not in plan order at position " +
                std::to_string(p) +
                " — commits would not replay the executor's accumulation "
                "order and C loses bitwise identity");
      if (p > 0) {
        const Task& x = rm.plan.tasks[chain[p - 1]];
        const Task& y = rm.plan.tasks[idx];
        if (x.ci != y.ci || x.cj != y.cj)
          add(out, FindingKind::CommitChain, std::nullopt, rm.rank,
              static_cast<std::ptrdiff_t>(idx),
              "tile " + std::to_string(tile) +
                  "'s chain mixes tasks of different C tiles");
      }
      prev = idx;
    }
  }
  for (std::size_t i = 0; i < n_tasks; ++i)
    if (seen[i] != 1)
      add(out, FindingKind::CommitChain, std::nullopt, rm.rank,
          static_cast<std::ptrdiff_t>(i),
          "task " + std::to_string(i) + " appears " +
              std::to_string(seen[i]) + " times across the commit chains");
}

// Adopted chains (the recovery model of docs/FAULTS.md §7): when a
// survivor adopts a dead rank's C tile it promises to replay that tile's
// commit chain exactly as the dead rank's own chain_layout grouped it —
// any other order changes the accumulation order and the recovered tile
// loses bitwise identity with the fault-free run.  Clean models adopt
// nothing, so every entry here came from the adopt-chain mutation and the
// analyzer must prove the replay order wrong (or the reference invalid).
void check_adopted_chains(const PlanModel& pm, const RankModel& rm,
                          std::vector<Finding>& out) {
  for (const RankModel::AdoptedChain& ac : rm.adopted_chains) {
    if (ac.dead_rank < 0 ||
        static_cast<std::size_t>(ac.dead_rank) >= pm.ranks.size() ||
        ac.dead_rank == rm.rank) {
      add(out, FindingKind::CommitChain, std::nullopt, rm.rank, -1,
          "adopted chain names an invalid dead rank " +
              std::to_string(ac.dead_rank));
      continue;
    }
    const RankModel& dead = pm.ranks[static_cast<std::size_t>(ac.dead_rank)];
    if (ac.tile >= dead.chains.tile_tasks.size()) {
      add(out, FindingKind::CommitChain, std::nullopt, rm.rank, -1,
          "adopted chain names tile " + std::to_string(ac.tile) +
              " which dead rank " + std::to_string(ac.dead_rank) +
              " does not own");
      continue;
    }
    if (ac.task_idxs != dead.chains.tile_tasks[ac.tile])
      add(out, FindingKind::CommitChain, std::nullopt, rm.rank, -1,
          "rank " + std::to_string(rm.rank) + " adopts dead rank " +
              std::to_string(ac.dead_rank) + "'s tile " +
              std::to_string(ac.tile) +
              " but replays its commit chain out of plan order — the "
              "recovered tile would not be bitwise identical to the "
              "fault-free run");
  }
}

// ---------------------------------------------------------------------------
// 4. Resource bounds.
//
// Closed-form per-rank ceilings for each operand lifetime, holding under
// fault re-arms and Direct -> Copy fallbacks too (every patch is counted as
// a copy, and a re-armed patch is the same patch).  At a fetch every live
// slot is read by one of the <= window issued tasks (each reading one A
// and one B slot), or, under the plan lifetime, held for a later reader:
// its [first, last] reader interval then spans the issue cursor (the sweep
// term).  Unwaited slots, and so cache pins, belong to issued tasks only.
// ---------------------------------------------------------------------------

struct RankBounds {
  std::uint64_t window_bytes = 0;
  std::uint64_t plan_bytes = 0;
  std::uint64_t pins = 0;
};

RankBounds rank_bounds(const RankModel& rm) {
  const std::vector<Task>& tasks = rm.plan.tasks;
  RankBounds rb;
  if (tasks.empty()) return rb;

  std::uint64_t max_a = 0, max_b = 0;
  bool any_remote = false;
  for (const Task& t : tasks) {
    max_a = std::max(max_a, patch_bytes(t.a_m, t.a_n));
    max_b = std::max(max_b, patch_bytes(t.b_m, t.b_n));
    // Cache pins exist only for out-of-domain fetches; reuse the verified
    // locality flags (a widened window may leave the matrix, so recomputing
    // here could trap — the shape check already reported it).
    if (!t.a_in_domain || !t.b_in_domain) any_remote = true;
  }
  const std::uint64_t window = static_cast<std::uint64_t>(rm.lookahead) + 1;
  rb.window_bytes = window * (max_a + max_b);

  // Sweep: the most bytes of distinct patches whose [first, last] reader
  // interval spans one plan position.
  struct SlotSpan {
    std::uint64_t bytes = 0;
    std::size_t first = 0, last = 0;
  };
  std::vector<SlotSpan> spans;
  std::map<std::array<index_t, 4>, std::size_t> a_of, b_of;
  const auto touch = [&](std::map<std::array<index_t, 4>, std::size_t>& m,
                         index_t i0, index_t j0, index_t pmi, index_t pnj,
                         std::size_t i) {
    const auto [it, fresh] =
        m.try_emplace(std::array<index_t, 4>{i0, j0, pmi, pnj},
                      spans.size());
    if (fresh)
      spans.push_back(SlotSpan{patch_bytes(pmi, pnj), i, i});
    else
      spans[it->second].last = i;
  };
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    touch(a_of, tasks[i].a_i0, tasks[i].a_j0, tasks[i].a_m, tasks[i].a_n, i);
    touch(b_of, tasks[i].b_i0, tasks[i].b_j0, tasks[i].b_m, tasks[i].b_n, i);
  }
  std::vector<std::uint64_t> delta(tasks.size() + 1, 0);
  std::vector<std::uint64_t> drop(tasks.size() + 1, 0);
  for (const SlotSpan& s : spans) {
    delta[s.first] += s.bytes;
    drop[s.last + 1] += s.bytes;
  }
  std::uint64_t live = 0, sweep_max = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    live += delta[i];
    live -= drop[i];
    sweep_max = std::max(sweep_max, live);
  }
  rb.plan_bytes = sweep_max + rb.window_bytes;
  rb.pins = any_remote ? 2 * window : 0;
  return rb;
}

}  // namespace

const char* finding_kind_name(FindingKind k) {
  switch (k) {
    case FindingKind::PlanShape: return "plan-shape";
    case FindingKind::EpochSafety: return "epoch-safety";
    case FindingKind::Executor: return "executor";
    case FindingKind::CommitChain: return "commit-chain";
    case FindingKind::ResourceBound: return "resource-bound";
  }
  return "?";
}

AnalysisReport analyze(const PlanModel& pm) {
  AnalysisReport rep;
  for (const RankModel& rm : pm.ranks) {
    rep.total_tasks += rm.plan.tasks.size();
    rep.total_tiles += rm.chains.tile_tasks.size();
    rep.max_lookahead = std::max(rep.max_lookahead, rm.lookahead);

    check_plan_shape(pm, rm, rep.findings);
    check_chains(rm, rep.findings);
    check_adopted_chains(pm, rm, rep.findings);
    const RankBounds rb = rank_bounds(rm);
    const ReplayPeak window = replay(pm, rm, false, rep.findings);
    const ReplayPeak plan = replay(pm, rm, true, rep.findings);
    const auto check_bound = [&](std::uint64_t peak, std::uint64_t bound,
                                 const char* what, const char* lifetime) {
      if (peak > bound)
        add(rep.findings, FindingKind::ResourceBound, std::nullopt, rm.rank,
            -1,
            std::string(lifetime) + " lifetime replay holds " +
                std::to_string(peak) + " " + what +
                ", above the static bound " + std::to_string(bound));
    };
    check_bound(window.bytes, rb.window_bytes, "buffer bytes", "window");
    check_bound(plan.bytes, rb.plan_bytes, "buffer bytes", "plan");
    check_bound(window.pins, rb.pins, "cache pins", "window");
    check_bound(plan.pins, rb.pins, "cache pins", "plan");
    rep.bounds.buffer_bytes = std::max(
        {rep.bounds.buffer_bytes, rb.window_bytes, rb.plan_bytes});
    rep.bounds.cache_pins = std::max(rep.bounds.cache_pins, rb.pins);
    rep.window_replay.bytes = std::max(rep.window_replay.bytes, window.bytes);
    rep.window_replay.pins = std::max(rep.window_replay.pins, window.pins);
    rep.plan_replay.bytes = std::max(rep.plan_replay.bytes, plan.bytes);
    rep.plan_replay.pins = std::max(rep.plan_replay.pins, plan.pins);
  }
  return rep;
}

std::string report_json(const PlanModel& pm, const AnalysisReport& rep,
                        const std::string& mutation,
                        const std::string& mutation_detail) {
  const SrummaOptions& o = pm.cfg.options;
  std::string j = "{\"schema\":\"srumma-analysis/1\",\"machine\":";
  j += trace::json_string(pm.cfg.machine.name);
  j += ",\"ranks\":" + std::to_string(pm.cfg.machine.total_ranks());
  j += ",\"m\":" + std::to_string(pm.cfg.m) +
       ",\"n\":" + std::to_string(pm.cfg.n) +
       ",\"k\":" + std::to_string(pm.cfg.k);
  j += ",\"options\":{\"ta\":";
  j += o.ta == blas::Trans::Yes ? "1" : "0";
  j += ",\"tb\":";
  j += o.tb == blas::Trans::Yes ? "1" : "0";
  j += ",\"flavor\":\"";
  j += o.shm_flavor == ShmFlavor::Direct ? "direct" : "copy";
  j += "\",\"nonblocking\":";
  j += o.nonblocking ? "true" : "false";
  j += ",\"max_lookahead\":" + std::to_string(rep.max_lookahead) + "}";
  j += ",\"total_tasks\":" + std::to_string(rep.total_tasks);
  j += ",\"total_tiles\":" + std::to_string(rep.total_tiles);
  j += ",\"bounds\":{\"buffer_bytes_peak_bound\":" +
       std::to_string(rep.bounds.buffer_bytes);
  j += ",\"cache_pins_bound\":" + std::to_string(rep.bounds.cache_pins);
  j += ",\"window_replay_peak_bytes\":" +
       std::to_string(rep.window_replay.bytes);
  j += ",\"window_replay_peak_pins\":" +
       std::to_string(rep.window_replay.pins);
  j += ",\"plan_replay_peak_bytes\":" + std::to_string(rep.plan_replay.bytes);
  j += ",\"plan_replay_peak_pins\":" +
       std::to_string(rep.plan_replay.pins) + "}";
  j += ",\"mutation\":";
  j += trace::json_string(mutation);
  if (!mutation_detail.empty()) {
    j += ",\"mutation_detail\":";
    j += trace::json_string(mutation_detail);
  }
  j += ",\"findings\":[";
  for (std::size_t i = 0; i < rep.findings.size(); ++i) {
    const Finding& f = rep.findings[i];
    if (i > 0) j += ",";
    j += "{\"kind\":\"";
    j += finding_kind_name(f.kind);
    j += "\"";
    if (f.diag.has_value()) {
      j += ",\"diag\":\"";
      j += check::diag_name(*f.diag);
      j += "\"";
    }
    j += ",\"rank\":" + std::to_string(f.rank);
    j += ",\"task\":" + std::to_string(f.task);
    j += ",\"message\":";
    j += trace::json_string(f.message);
    j += "}";
  }
  j += "],\"certified\":";
  j += rep.certified() ? "true" : "false";
  j += "}";
  return j;
}

}  // namespace srumma::analysis
