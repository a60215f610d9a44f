#pragma once
// The static verifier behind srumma-analyze (docs/ANALYSIS.md).
//
// analyze() proves, per configuration, the three properties the dynamic
// RMA checker can only spot-check at runtime:
//
//   1. Epoch safety — every get window equals its task's C-tile x K-segment
//      footprint, lies inside the operand, carries correct locality flags,
//      and every C write stays inside the rank's own disjoint block; plus
//      an exact replay of the executor (engine::run_plan, in plan order)
//      under both operand lifetimes, proving no buffer is read or
//      re-targeted while its get is pending.  Together these rule out every
//      diagnostic class in src/check for clean plans.
//   2. Commit-chain consistency — the chains recovery adopts are exactly
//      the plan-order grouping, so an adopted tile accumulates its products
//      in the order its owner would have (docs/ANALYSIS.md §2).
//   3. Static resource bounds — provable per-team ceilings on
//      buffer_bytes_peak and concurrent cache pins for both lifetimes,
//      cross-checked against each replay's exact clean-run peak.
//
// Findings carry the dynamic Diag class they would surface as, so the
// static-vs-dynamic coverage matrix in docs/CHECKING.md is checkable.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/plan_model.hpp"
#include "check/rma_checker.hpp"

namespace srumma::analysis {

enum class FindingKind {
  PlanShape,      ///< get window or locality flag disagrees with the task
  EpochSafety,    ///< an ownership / bounds premise of epoch safety fails
  Executor,       ///< the executor replay read or re-targeted a pending buffer
  CommitChain,    ///< chain layout is not the plan-order grouping
  ResourceBound,  ///< a replay peak exceeds its provable static bound
};

[[nodiscard]] const char* finding_kind_name(FindingKind k);

struct Finding {
  FindingKind kind;
  /// Dynamic diagnostic this fault would surface as, when one exists.
  std::optional<check::Diag> diag;
  int rank = -1;
  std::ptrdiff_t task = -1;  ///< plan index, -1 when not task-specific
  std::string message;
};

/// Provable static ceilings (bytes / pin counts are per-rank maxima, i.e.
/// exactly what the MAX-aggregated bench counters report team-wide), each
/// the larger of the two operand lifetimes', so safe whichever one
/// EngineMode selects.
struct ResourceBounds {
  std::uint64_t buffer_bytes = 0;
  std::uint64_t cache_pins = 0;
};

/// Exact clean-run footprint of one operand lifetime, from the replay.
struct ReplayPeak {
  std::uint64_t bytes = 0;
  std::uint64_t pins = 0;
};

struct AnalysisReport {
  std::vector<Finding> findings;
  ResourceBounds bounds;
  std::size_t total_tasks = 0;
  std::size_t total_tiles = 0;
  int max_lookahead = 0;
  ReplayPeak window_replay;  ///< EngineMode::Off (<= the bound)
  ReplayPeak plan_replay;    ///< EngineMode::On (<= the bound)

  [[nodiscard]] bool certified() const { return findings.empty(); }
};

[[nodiscard]] AnalysisReport analyze(const PlanModel& pm);

/// Machine-readable report ("srumma-analysis/1"), one JSON object.
[[nodiscard]] std::string report_json(const PlanModel& pm,
                                      const AnalysisReport& rep,
                                      const std::string& mutation,
                                      const std::string& mutation_detail);

}  // namespace srumma::analysis
