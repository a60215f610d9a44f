#pragma once
// Per-rank virtual clock.
//
// Ranks execute at real speed, as fibers over a pool of worker threads by
// default or as one OS thread each (runtime/team.hpp, ExecMode), but *time*
// is virtual: every modeled operation (dgemm, copy, message, wait) advances
// the owning rank's clock by the modeled duration.  Cross-rank effects
// arrive two ways:
//   * synchronization points (barrier, message match, RMA wait) take the
//     max of the clocks involved, and
//   * host-CPU "steal": a non-zero-copy RMA get interrupts the data owner's
//     CPU to copy buffers; the victim rank accumulates that stolen time
//     atomically and folds it into its own clock at its next operation.

#include <atomic>

namespace srumma {

class VClock {
 public:
  /// Current virtual time in seconds (applies any pending stolen time).
  [[nodiscard]] double now() noexcept {
    apply_steal();
    return now_;
  }

  /// Advance by a modeled duration (dt >= 0).
  void advance(double dt) noexcept {
    apply_steal();
    now_ += dt;
  }

  /// Jump forward to time t if t is in the future (used by waits/matches).
  void sync_to(double t) noexcept {
    apply_steal();
    if (t > now_) now_ = t;
  }

  /// Called by *other* ranks: this rank's CPU was borrowed for dt seconds.
  void add_steal(double dt) noexcept { steal_.fetch_add(dt, std::memory_order_relaxed); }

  /// Total stolen time folded in so far (for tracing).
  [[nodiscard]] double steal_total() const noexcept { return steal_applied_; }

  void reset() noexcept {
    now_ = 0.0;
    steal_applied_ = 0.0;
    steal_.store(0.0, std::memory_order_relaxed);
  }

 private:
  void apply_steal() noexcept {
    const double s = steal_.exchange(0.0, std::memory_order_relaxed);
    if (s != 0.0) {
      now_ += s;
      steal_applied_ += s;
    }
  }

  double now_ = 0.0;
  double steal_applied_ = 0.0;
  std::atomic<double> steal_{0.0};
};

}  // namespace srumma
