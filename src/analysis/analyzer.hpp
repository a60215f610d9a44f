#pragma once
// The static verifier behind srumma-analyze (docs/ANALYSIS.md).
//
// analyze() proves, per configuration, the three properties the dynamic
// RMA checker can only spot-check at runtime:
//
//   1. Epoch safety — every get window equals its task's C-tile x K-segment
//      footprint, lies inside the operand, carries correct locality flags,
//      and every C write stays inside the rank's own disjoint block; plus
//      an exact replay of the prefetch pipeline's slot rotation proving no
//      buffer is read or re-targeted while its get is pending.  Together
//      these rule out every diagnostic class in src/check for clean plans.
//   2. Commit-chain consistency — the chains the engine executes are
//      exactly the plan-order grouping, which is what makes it
//      deadlock-free (the earliest-uncommitted-position induction of
//      docs/ANALYSIS.md §2).
//   3. Static resource bounds — provable per-team ceilings on
//      buffer_bytes_peak and concurrent cache pins for both executors,
//      cross-checked against the replay's exact clean-run peak.
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
  Pipeline,       ///< the pipeline replay read or re-targeted a pending buffer
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
/// exactly what the MAX-aggregated bench counters report team-wide).
struct ResourceBounds {
  std::uint64_t pipeline_buffer_bytes = 0;
  std::uint64_t engine_buffer_bytes = 0;
  /// max of the two executors — safe whichever one SRUMMA_ENGINE selects.
  std::uint64_t buffer_bytes = 0;
  std::uint64_t pipeline_cache_pins = 0;
  std::uint64_t engine_cache_pins = 0;
  std::uint64_t cache_pins = 0;
};

struct AnalysisReport {
  std::vector<Finding> findings;
  ResourceBounds bounds;
  std::size_t total_tasks = 0;
  std::size_t total_tiles = 0;
  int max_lookahead = 0;
  /// Exact clean-run pipeline footprint from the replay (<= the bound).
  std::uint64_t pipeline_replay_peak_bytes = 0;
  std::uint64_t pipeline_replay_peak_pins = 0;

  [[nodiscard]] bool certified() const { return findings.empty(); }
};

[[nodiscard]] AnalysisReport analyze(const PlanModel& pm);

/// Machine-readable report ("srumma-analysis/1"), one JSON object.
[[nodiscard]] std::string report_json(const PlanModel& pm,
                                      const AnalysisReport& rep,
                                      const std::string& mutation,
                                      const std::string& mutation_detail);

}  // namespace srumma::analysis
