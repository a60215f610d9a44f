#pragma once
// Serialized bandwidth resources for contention modeling.
//
// A Resource represents something transfers queue on: a node's NIC (one for
// egress, one for ingress) or a shared-memory domain's aggregate memory
// system.  book(ready, dur) reserves the earliest interval of length `dur`
// starting at or after `ready` that does not overlap any existing
// reservation, and returns its end time.
//
// First-fit gap placement (rather than FIFO tail placement) matters because
// ranks execute at unrelated real-time speeds: a rank that runs far ahead
// in *real* time may book transfers with large virtual ready times before a
// slower rank books one with ready ~ 0.  Gap placement keeps the schedule
// governed by virtual time, so the modeled contention is independent of OS
// scheduling.  The invariant that matters for the paper's contention
// effects (Fig. 4) is conservation: reservations never overlap, so a
// resource never moves more bytes per virtual second than its bandwidth.
//
// Implementation notes (the hot path of every modeled transfer):
//  - Reservations live in a flat sorted vector, not a std::map: bookings
//    are overwhelmingly near the tail (ready times ride the advancing
//    clocks), so the binary search + tail insert beats node allocation,
//    and the uncontended case appends without searching at all.
//  - Exact-adjacency coalescing: a reservation starting precisely where
//    its neighbor ends is merged.  This is behavior-preserving for
//    first-fit (no gap is created or destroyed) and keeps a saturated
//    resource at O(1) intervals instead of one per transfer.
//  - advance_frontier(W) additionally merges every interval ending at or
//    before a watermark W into one dead prefix.  That DOES swallow gaps,
//    so it is only sound when every future ready time is >= W; Team's
//    barrier provides exactly that watermark (all clocks sync past the
//    release), bounding memory on long runs.
//  - next_free()/busy_total() are served from relaxed atomics maintained
//    inside book(), so profilers and tests never take the booking lock.
//  - The lock is a spin lock, not a std::mutex.  The critical section is a
//    few tens of nanoseconds, and it is contended in the common case: the
//    ranks of one node sit next to each other in the fiber run queue, so
//    they run at the same time on different workers and book their shared
//    NICs together.  A mutex sends every such collision into the kernel
//    (futex wait and wake); the spin lock waits it out in user space.
//    Waiters spin on a plain load, pause for a bounded number of rounds,
//    then yield the OS thread, so a holder that lost its CPU (one OS
//    thread per rank, or an oversubscribed host) still gets to run.
//    Nothing parks a fiber while holding it: book() never yields.

#include <atomic>
#include <cstddef>
#include <mutex>
#include <thread>
#include <vector>

namespace srumma {

/// Test-and-test-and-set lock for critical sections of a few tens of
/// nanoseconds (see the Resource notes above).  Satisfies Lockable.
class SpinLock {
 public:
  void lock() noexcept {
    int backoff = 1;
    while (locked_.exchange(true, std::memory_order_acquire)) {
      do {
        if (backoff <= kMaxPauses) {
          for (int i = 0; i < backoff; ++i) pause();
          backoff *= 2;
        } else {
          std::this_thread::yield();
        }
      } while (locked_.load(std::memory_order_relaxed));
    }
  }
  void unlock() noexcept { locked_.store(false, std::memory_order_release); }

 private:
  static constexpr int kMaxPauses = 64;

  static void pause() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }

  std::atomic<bool> locked_{false};
};

class Resource {
 public:
  /// Reserve the earliest feasible [start, start+duration) with
  /// start >= ready; returns the completion time (start + duration).
  double book(double ready, double duration) {
    std::lock_guard<SpinLock> lock(mu_);
    busy_.store(busy_.load(std::memory_order_relaxed) + duration,
                std::memory_order_relaxed);
    if (duration <= 0.0) return ready;
    const double horizon = horizon_.load(std::memory_order_relaxed);

    // Fast path: nothing booked yet, or the request starts at/after the
    // horizon — append (or glue onto) the tail without searching.
    if (iv_.empty()) {
      iv_.push_back({ready, ready + duration});
      set_horizon(ready + duration);
      return ready + duration;
    }
    if (ready >= horizon) {
      if (iv_.back().end == ready) {
        iv_.back().end = ready + duration;
      } else {
        iv_.push_back({ready, ready + duration});
      }
      set_horizon(ready + duration);
      return ready + duration;
    }

    // General case: first-fit walk from the first interval that could
    // overlap [start, start+duration).
    double start = ready;
    std::size_t i = upper_bound(start);
    if (i > 0 && iv_[i - 1].end > start) start = iv_[i - 1].end;
    while (i < iv_.size() && iv_[i].start < start + duration) {
      start = iv_[i].end;
      ++i;
    }
    const double end = start + duration;
    const bool glue_prev = i > 0 && iv_[i - 1].end == start;
    const bool glue_next = i < iv_.size() && iv_[i].start == end;
    if (glue_prev && glue_next) {
      iv_[i - 1].end = iv_[i].end;
      iv_.erase(iv_.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (glue_prev) {
      iv_[i - 1].end = end;
    } else if (glue_next) {
      iv_[i].start = start;
    } else {
      iv_.insert(iv_.begin() + static_cast<std::ptrdiff_t>(i), {start, end});
    }
    if (end > horizon) set_horizon(end);
    return end;
  }

  /// Merge every reservation ending at or before `watermark` into one dead
  /// prefix interval.  ONLY sound when the caller guarantees all future
  /// ready times are >= watermark (see header comment); the prefix then
  /// acts as a single opaque "busy since the dawn of time" block that no
  /// future first-fit walk can place anything inside.
  void advance_frontier(double watermark) {
    std::lock_guard<SpinLock> lock(mu_);
    std::size_t n = 0;
    while (n < iv_.size() && iv_[n].end <= watermark) ++n;
    if (n <= 1) return;
    iv_[0].end = iv_[n - 1].end;
    iv_.erase(iv_.begin() + 1, iv_.begin() + static_cast<std::ptrdiff_t>(n));
  }

  /// Latest reservation end (the resource's makespan so far).  Lock-free.
  [[nodiscard]] double next_free() const {
    return horizon_.load(std::memory_order_acquire);
  }

  /// Total reserved busy time (for utilization reporting).  Lock-free.
  [[nodiscard]] double busy_total() const {
    return busy_.load(std::memory_order_acquire);
  }

  void reset() {
    std::lock_guard<SpinLock> lock(mu_);
    iv_.clear();
    horizon_.store(0.0, std::memory_order_release);
    busy_.store(0.0, std::memory_order_release);
  }

 private:
  struct Interval {
    double start;
    double end;
  };

  // First index whose interval starts after `t` (like map::upper_bound on
  // the start key).
  [[nodiscard]] std::size_t upper_bound(double t) const {
    std::size_t lo = 0, hi = iv_.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (iv_[mid].start <= t) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  void set_horizon(double h) { horizon_.store(h, std::memory_order_release); }

  SpinLock mu_;
  std::vector<Interval> iv_;  // sorted by start; non-overlapping; gaps > 0
  std::atomic<double> horizon_{0.0};  // published by book() under mu_
  std::atomic<double> busy_{0.0};     // published by book() under mu_
};

}  // namespace srumma
