#include "runtime/team.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <string>
#include <thread>

#include "runtime/fiber_exec.hpp"
#include "trace/chrome_trace.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace srumma {

int Rank::node() const noexcept { return team_->machine().node_of(id_); }
int Rank::domain() const noexcept { return team_->machine().domain_of(id_); }
const MachineModel& Rank::machine() const noexcept { return team_->machine(); }

trace::Tracer* Rank::tracer() noexcept { return team_->tracer_ptr(); }

void Rank::barrier() { team_->barrier_wait(*this); }

void Rank::charge_gemm(index_t m, index_t n, index_t k, double rate_factor) {
  if (m <= 0 || n <= 0 || k <= 0) return;
  SRUMMA_REQUIRE(rate_factor > 0.0, "rate_factor must be positive");
  const double dt = machine().dgemm.time(m, n, k) / rate_factor;
  const double before = clock_.now();
  clock_.advance(dt);
  if (trace::Tracer* tr = tracer())
    tr->span(id_, trace::Phase::Compute, before, before + dt,
             static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(n));
  trace_.time_compute += dt;
  trace_.gemm_calls += 1;
  trace_.flops += gemm_flops(static_cast<double>(m), static_cast<double>(n),
                             static_cast<double>(k));
  consume_cpu(dt);
}

void Rank::charge_seconds(double dt) {
  SRUMMA_REQUIRE(dt >= 0.0, "cannot charge negative time");
  clock_.advance(dt);
  consume_cpu(dt);
}

void Rank::consume_cpu(double dt) {
  const MachineModel& mm = machine();
  if (mm.noise_daemon_interval <= 0.0 || mm.noise_daemon_duration <= 0.0)
    return;
  // Deterministic per-rank jitter: the gap to the next preemption is drawn
  // from [0.5, 1.5] x interval using a hash of (rank, sequence), so runs
  // are exactly reproducible and ranks are decorrelated — which is what
  // makes bulk-synchronous codes pay the max over ranks at every step.
  auto next_gap = [this, &mm] {
    std::uint64_t x =
        static_cast<std::uint64_t>(id_) * std::uint64_t{0x9e3779b97f4a7c15} +
        ++noise_seq_ * std::uint64_t{0xbf58476d1ce4e5b9};
    x ^= x >> 30;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 27;
    const double u = static_cast<double>(x >> 11) * 0x1.0p-53;  // [0,1)
    return mm.noise_daemon_interval * (0.5 + u);
  };
  if (next_preempt_ < 0.0) next_preempt_ = next_gap();
  cpu_used_ += dt;
  while (cpu_used_ >= next_preempt_) {
    const double before = clock_.now();
    clock_.advance(mm.noise_daemon_duration);
    if (trace::Tracer* tr = tracer())
      tr->span(id_, trace::Phase::Noise, before, clock_.now());
    trace_.time_noise += mm.noise_daemon_duration;
    next_preempt_ += next_gap();
  }
}

void Rank::reset_noise() {
  cpu_used_ = 0.0;
  next_preempt_ = -1.0;
  noise_seq_ = 0;
}

Team::Team(MachineModel machine)
    : machine_(std::move(machine)),
      size_(machine_.total_ranks()),
      net_(machine_),
      trace_board_(static_cast<std::size_t>(size_)),
      value_board_(static_cast<std::size_t>(size_), 0.0) {
  env::check_names();
  ranks_.reserve(static_cast<std::size_t>(size_));
  for (int r = 0; r < size_; ++r) {
    ranks_.push_back(std::make_unique<Rank>(this, r));
  }
  if (auto cfg = fault::FaultConfig::from_env())
    faults_ = std::make_shared<fault::FaultPlane>(machine_, *cfg);
  if (auto cfg = trace::TracerConfig::from_env()) enable_tracer(*cfg);
}

Team::~Team() { flush_trace(); }

void Team::enable_tracer(trace::TracerConfig cfg) {
  std::vector<trace::TrackInfo> tracks;
  tracks.reserve(static_cast<std::size_t>(size_));
  for (int r = 0; r < size_; ++r)
    tracks.push_back({machine_.node_of(r), machine_.domain_of(r)});
  tracer_ = std::make_unique<trace::Tracer>(std::move(tracks), std::move(cfg));
}

bool Team::flush_trace() {
  if (!tracer_ || tracer_->config().path.empty()) return true;
  bool any = false;
  for (int r = 0; r < size_ && !any; ++r) any = tracer_->recorded(r) > 0;
  if (!any) return true;
  return trace::write_chrome_trace_file(tracer_->config().path, *tracer_);
}

Rank& Team::rank(int id) {
  SRUMMA_REQUIRE(id >= 0 && id < size_, "rank id out of range");
  return *ranks_[static_cast<std::size_t>(id)];
}

void Team::run(const std::function<void(Rank&)>& body) {
  SRUMMA_REQUIRE(!aborted(), "team was aborted; call reset() before reuse");
  std::mutex err_mu;
  std::exception_ptr first_error;
  auto rank_body = [this, &body, &err_mu, &first_error](int r) {
    try {
      body(*ranks_[static_cast<std::size_t>(r)]);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
      abort();  // wake parked ranks so the run cannot hang
    }
  };

  ExecMode mode = exec_mode_;
  // A body that itself runs a nested team cannot stack a second fiber pool
  // on a fiber: fall back to thread-per-rank for the nested run.  No
  // in-tree code outside the tests nests runs this way.
  if (mode == ExecMode::Pooled && exec::on_fiber()) mode = ExecMode::Threads;

  if (mode == ExecMode::Pooled) {
    const int workers =
        exec_workers_ > 0 ? exec_workers_ : exec::default_workers();
    exec::run_fibers(size_, workers, exec::default_stack_bytes(), rank_body);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(size_));
    for (int r = 0; r < size_; ++r)
      threads.emplace_back([&rank_body, r] { rank_body(r); });
    for (auto& t : threads) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);
}

void Team::reset() {
  for (auto& r : ranks_) {
    r->clock().reset();
    r->trace() = TraceCounters{};
    r->reset_noise();
  }
  net_.reset();
  // Drop traced events so timestamps stay monotone within one recording:
  // after a reset the trace covers the Team's most recent run.
  if (tracer_) tracer_->clear();
  {
    std::lock_guard<std::mutex> lock(barrier_mu_);
    barrier_arrived_ = 0;
    barrier_max_ = 0.0;
    barrier_release_ = 0.0;
  }
  aborted_.store(false, std::memory_order_release);
  // Replay the same injected faults on the next run.
  if (faults_) faults_->reset();
}

double Team::max_clock() {
  double m = 0.0;
  for (auto& r : ranks_) m = std::max(m, r->clock().now());
  return m;
}

TraceCounters& Team::trace_board(int rank) {
  SRUMMA_REQUIRE(rank >= 0 && rank < size_, "trace_board: rank out of range");
  return trace_board_[static_cast<std::size_t>(rank)];
}

double& Team::value_board(int rank) {
  SRUMMA_REQUIRE(rank >= 0 && rank < size_, "value_board: rank out of range");
  return value_board_[static_cast<std::size_t>(rank)];
}

TraceCounters Team::total_trace() {
  TraceCounters t;
  for (auto& r : ranks_) t += r->trace();
  return t;
}

void Team::abort() noexcept {
  aborted_.store(true, std::memory_order_release);
  // Taking the barrier lock orders the flag before any thread-per-rank
  // waiter's next predicate check: without it a waiter that has just read
  // the flag as false could block after this notify and never wake.
  { std::lock_guard<std::mutex> lock(barrier_mu_); }
  barrier_cv_.notify_all();
  // Wake every registered blocking wait (symmetric allocation, mailboxes)
  // so peers observe the abort promptly instead of riding out their
  // polling interval.  (Pooled-mode fibers need no wakeup: parked fibers
  // re-poll their predicate, which checks aborted(), on every resume.)
  std::lock_guard<std::mutex> lock(abort_cv_mu_);
  for (std::condition_variable* cv : abort_cv_slots_)
    if (cv != nullptr) cv->notify_all();
}

std::uint64_t Team::add_abort_cv(std::condition_variable* cv) {
  std::lock_guard<std::mutex> lock(abort_cv_mu_);
  if (!abort_cv_free_.empty()) {
    const std::uint64_t id = abort_cv_free_.back();
    abort_cv_free_.pop_back();
    abort_cv_slots_[static_cast<std::size_t>(id)] = cv;
    return id;
  }
  const std::uint64_t id = abort_cv_slots_.size();
  abort_cv_slots_.push_back(cv);
  return id;
}

void Team::remove_abort_cv(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(abort_cv_mu_);
  SRUMMA_REQUIRE(id < abort_cv_slots_.size() &&
                     abort_cv_slots_[static_cast<std::size_t>(id)] != nullptr,
                 "remove_abort_cv: unknown registry id");
  abort_cv_slots_[static_cast<std::size_t>(id)] = nullptr;
  abort_cv_free_.push_back(id);
}

std::uint64_t Team::add_epoch_observer(std::function<void(int)> fn) {
  std::lock_guard<std::mutex> lock(observer_mu_);
  const std::uint64_t id = next_observer_id_++;
  epoch_observers_.emplace(id, std::move(fn));
  has_epoch_observers_.store(true, std::memory_order_release);
  return id;
}

void Team::remove_epoch_observer(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(observer_mu_);
  epoch_observers_.erase(id);
  has_epoch_observers_.store(!epoch_observers_.empty(),
                             std::memory_order_release);
}

void Team::notify_epoch_observers(int rank) {
  // Copy under the lock, call outside it: an observer may throw (the RMA
  // checker in throw mode) and must not leave observer_mu_ held.
  std::vector<std::function<void(int)>> fns;
  {
    std::lock_guard<std::mutex> lock(observer_mu_);
    fns.reserve(epoch_observers_.size());
    for (auto& [id, fn] : epoch_observers_) fns.push_back(fn);
  }
  for (auto& fn : fns) fn(rank);
}

void Team::barrier_wait(Rank& me, const std::function<void()>& on_last) {
  // Barrier kill point: a configured fail-stop whose trigger is "at the
  // next synchronization" trips as its domain's ranks enter the barrier.
  // The rank still joins (barriers count all ranks, dead or alive); the
  // recovery protocol detects and declares the death at its own barrier.
  if (fault::FaultPlane* fp = faults(); fp != nullptr)
    fp->reach_kill_point(fault::KillPoint::Barrier, me.domain(),
                         me.clock().now());
  if (has_epoch_observers_.load(std::memory_order_acquire)) {
    if (trace::Tracer* tr = tracer_.get())
      tr->instant(me.id(), trace::Phase::Epoch, me.clock().now());
    notify_epoch_observers(me.id());
  }

  const double barrier_cost =
      machine_.barrier_hop_latency *
      (size_ > 1 ? std::ceil(std::log2(static_cast<double>(size_))) : 0.0);

  std::unique_lock<std::mutex> lock(barrier_mu_);
  if (aborted()) throw Error("team aborted while entering barrier");
  barrier_max_ = std::max(barrier_max_, me.clock().now());
  const bool last = ++barrier_arrived_ == size_;
  if (last) {
    barrier_release_ = barrier_max_ + barrier_cost;
    barrier_arrived_ = 0;
    barrier_max_ = 0.0;
    if (on_last) on_last();
    ++barrier_generation_;
    barrier_cv_.notify_all();
  } else {
    const std::uint64_t gen = barrier_generation_;
    auto released = [&] { return barrier_generation_ != gen || aborted(); };
    if (exec::on_fiber()) {
      // Pooled mode: park by yielding the fiber (lock dropped across the
      // yield); the predicate is re-polled on every resume.
      while (!released()) {
        lock.unlock();
        exec::yield();
        lock.lock();
      }
    } else {
      barrier_cv_.wait(lock, released);
    }
    if (aborted()) throw Error("team aborted while waiting in barrier");
  }
  const double release = barrier_release_;
  lock.unlock();
  if (last) {
    // Watermark coalescing, after the release so that no waiter is held
    // up by it.  Every booking from the release on has a ready time
    // derived from a clock sync'd to `release`, so reservations ending at
    // or before it can never influence a placement and may be merged into
    // one dead prefix interval, whether such a booking lands before or
    // after the merge.  This bounds Resource memory on long runs without
    // changing any modeled result.  The next barrier cannot release (and
    // merge again) before this rank is done and arrives there.
    net_.advance_frontier(release);
  }
  const double before = me.clock().now();
  me.clock().sync_to(release);
  if (trace::Tracer* tr = tracer_.get()) {
    if (release > before)
      tr->span(me.id(), trace::Phase::Barrier, before, release);
  }
}

}  // namespace srumma
