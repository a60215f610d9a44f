#pragma once
// Two-dimensional process grid and 1-D block distribution.
//
// Ranks are laid out column-major on the p x q grid (rank = pi + pj*p), so
// with ranks_per_node = p a grid column maps onto one SMP node — the
// configuration of the paper's Fig. 4 (node 1 holds P00, P10, P20, P30).
//
// The distribution is plain block (not block-cyclic): rank (pi, pj) owns
// one contiguous block of each matrix, which is what SRUMMA's "owner
// computes" task decomposition assumes.  Remainders are spread one extra
// row/column to the first parts, so any m, n, P combination is legal.

#include <utility>

#include "util/error.hpp"
#include "util/matrix.hpp"

namespace srumma {

/// p x q logical process grid with column-major rank numbering.
struct ProcGrid {
  int p = 1;  ///< grid rows
  int q = 1;  ///< grid cols

  [[nodiscard]] int size() const noexcept { return p * q; }
  bool operator==(const ProcGrid&) const = default;
  [[nodiscard]] int rank_of(int pi, int pj) const {
    SRUMMA_REQUIRE(pi >= 0 && pi < p && pj >= 0 && pj < q,
                   "grid coords out of range");
    return pi + pj * p;
  }
  [[nodiscard]] std::pair<int, int> coords_of(int rank) const {
    SRUMMA_REQUIRE(rank >= 0 && rank < size(), "rank out of range");
    return {rank % p, rank / p};
  }

  /// Most-square factorization p*q = nranks with p >= q.
  static ProcGrid near_square(int nranks);
};

/// Block distribution of n items over `parts` parts; the first n % parts
/// parts receive one extra item.
class BlockDist1D {
 public:
  BlockDist1D() = default;
  BlockDist1D(index_t n, int parts) : n_(n), parts_(parts) {
    SRUMMA_REQUIRE(n >= 0 && parts >= 1, "invalid block distribution");
  }

  [[nodiscard]] index_t total() const noexcept { return n_; }
  [[nodiscard]] int parts() const noexcept { return parts_; }
  bool operator==(const BlockDist1D&) const = default;

  [[nodiscard]] index_t start(int part) const {
    SRUMMA_REQUIRE(part >= 0 && part <= parts_, "part out of range");
    const index_t base = n_ / parts_;
    const index_t rem = n_ % parts_;
    return part * base + std::min<index_t>(part, rem);
  }
  [[nodiscard]] index_t count(int part) const {
    return start(part + 1) - start(part);
  }
  [[nodiscard]] int owner(index_t i) const {
    SRUMMA_REQUIRE(i >= 0 && i < n_, "index out of range");
    const index_t base = n_ / parts_;
    const index_t rem = n_ % parts_;
    const index_t split = rem * (base + 1);
    if (i < split) return static_cast<int>(i / (base + 1));
    return static_cast<int>(rem + (i - split) / base);
  }

 private:
  index_t n_ = 0;
  int parts_ = 1;
};

}  // namespace srumma
