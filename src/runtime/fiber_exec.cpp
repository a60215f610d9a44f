#include "runtime/fiber_exec.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "util/env.hpp"
#include "util/error.hpp"

// Sanitizer fiber annotations.  GCC defines __SANITIZE_THREAD__ /
// __SANITIZE_ADDRESS__; clang exposes __has_feature.  The interface
// functions are declared here directly (not via <sanitizer/...> headers) so
// the build never depends on header availability — the symbols live in
// libtsan/libasan, which are linked exactly when the macros are defined.
#if defined(__SANITIZE_THREAD__)
#define SRUMMA_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SRUMMA_FIBER_TSAN 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define SRUMMA_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SRUMMA_FIBER_ASAN 1
#endif
#endif

#if defined(SRUMMA_FIBER_TSAN)
extern "C" {
void* __tsan_get_current_fiber(void);
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif
#if defined(SRUMMA_FIBER_ASAN)
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom,
                                    size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** bottom_old,
                                     size_t* size_old);
void __asan_unpoison_memory_region(void const volatile* addr, size_t size);
}
#endif

namespace srumma::exec {
namespace {

struct Pool;

// One mmap'd fiber stack with a PROT_NONE guard page at its low end.
struct Stack {
  char* map_base = nullptr;   // mmap base (guard page lives here)
  std::size_t map_bytes = 0;  // total mapped, guard included
  char* lo = nullptr;         // usable stack bottom (above the guard)
  std::size_t bytes = 0;      // usable bytes
};

struct FiberState {
  ucontext_t ctx{};
  Pool* pool = nullptr;
  int index = 0;
  Stack stack;
  bool finished = false;
#if defined(SRUMMA_FIBER_TSAN)
  void* tsan_fiber = nullptr;
#endif
#if defined(SRUMMA_FIBER_ASAN)
  void* asan_fake_stack = nullptr;        // saved when switching out
  const void* return_stack_bottom = nullptr;  // resuming worker's stack
  std::size_t return_stack_size = 0;
#endif
};

// Per-worker scheduler context.  A fiber always swaps back to the context
// stored here by the worker that most recently resumed it, so migration
// across workers is safe: nothing on the fiber side reads worker TLS after
// the switch.
struct Worker {
  ucontext_t sched_ctx{};
#if defined(SRUMMA_FIBER_TSAN)
  void* tsan_fiber = nullptr;  // the worker thread's own TSan fiber
#endif
#if defined(SRUMMA_FIBER_ASAN)
  void* asan_fake_stack = nullptr;
#endif
};

struct Pool {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<FiberState*> runnable;  // guarded by mu
  int live = 0;                      // guarded by mu
  const std::function<void(int)>* body = nullptr;
};

thread_local Worker* t_worker = nullptr;
thread_local FiberState* t_fiber = nullptr;

// Switch the worker into `f`; returns when `f` yields or finishes.
void switch_to_fiber(Worker& w, FiberState& f) {
#if defined(SRUMMA_FIBER_ASAN)
  __sanitizer_start_switch_fiber(&w.asan_fake_stack, f.stack.lo,
                                 f.stack.bytes);
#endif
#if defined(SRUMMA_FIBER_TSAN)
  __tsan_switch_to_fiber(f.tsan_fiber, 0);
#endif
  swapcontext(&w.sched_ctx, &f.ctx);
#if defined(SRUMMA_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(w.asan_fake_stack, nullptr, nullptr);
#endif
}

// Switch the current fiber back to the worker that resumed it.  With
// `finishing` the fiber never runs again (its ASan fake stack is released,
// its TSan fiber is destroyed by the worker).
void switch_to_worker(FiberState& f, [[maybe_unused]] bool finishing) {
  Worker& w = *t_worker;  // read BEFORE the switch, on the worker's thread
#if defined(SRUMMA_FIBER_ASAN)
  __sanitizer_start_switch_fiber(finishing ? nullptr : &f.asan_fake_stack,
                                 f.return_stack_bottom, f.return_stack_size);
#endif
#if defined(SRUMMA_FIBER_TSAN)
  __tsan_switch_to_fiber(w.tsan_fiber, 0);
#endif
  swapcontext(&f.ctx, &w.sched_ctx);
  // Resumed (never reached when finishing), possibly on another worker.
#if defined(SRUMMA_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(f.asan_fake_stack, &f.return_stack_bottom,
                                  &f.return_stack_size);
#endif
}

// makecontext passes arguments as ints; smuggle the pointer as two 32-bit
// halves so this works regardless of how wide int is relative to void*.
void fiber_trampoline(unsigned hi, unsigned lo) {
  const std::uint64_t u = (std::uint64_t{hi} << 32) | std::uint64_t{lo};
  FiberState* f = reinterpret_cast<FiberState*>(static_cast<std::uintptr_t>(u));
#if defined(SRUMMA_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(nullptr, &f->return_stack_bottom,
                                  &f->return_stack_size);
#endif
  (*f->pool->body)(f->index);
  f->finished = true;
  switch_to_worker(*f, /*finishing=*/true);
  // Unreachable: the worker never resumes a finished fiber.
}

std::size_t page_size() {
  const long p = sysconf(_SC_PAGESIZE);
  return p > 0 ? static_cast<std::size_t>(p) : std::size_t{4096};
}

Stack map_stack(std::size_t usable) {
  const std::size_t page = page_size();
  const std::size_t total = usable + page;  // + guard page at the low end
  void* base = mmap(nullptr, total, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  SRUMMA_REQUIRE(base != MAP_FAILED, "fiber stack mmap failed");
  SRUMMA_REQUIRE(mprotect(base, page, PROT_NONE) == 0,
                 "fiber guard page mprotect failed");
  Stack s;
  s.map_base = static_cast<char*>(base);
  s.map_bytes = total;
  s.lo = s.map_base + page;
  s.bytes = usable;
  return s;
}

void unmap_stack(const Stack& s) {
#if defined(SRUMMA_FIBER_ASAN)
  // munmap leaves ASan's shadow as it was, and a later mapping at this
  // address would inherit the poison of frames that never unwound.
  __asan_unpoison_memory_region(s.lo, s.bytes);
#endif
  munmap(s.map_base, s.map_bytes);
}

// Process-wide LIFO free list of fiber stacks, shared by every run_fibers
// call on any thread.  A run maps new stacks only when the list is empty,
// and a finished fiber hands its stack back, so the list never holds more
// stacks than were ever alive at once.  All cached stacks have the usable
// size of the latest request; a request of another size unmaps them.
// Stacks are never prefaulted: a cached stack is resident only in the
// pages fibers touched.
class StackCache {
 public:
  // `n` stacks of `bytes` rounded up to whole pages, most recently
  // returned first.
  std::vector<Stack> take(std::size_t n, std::size_t bytes) {
    const std::size_t page = page_size();
    const std::size_t usable = (bytes + page - 1) / page * page;
    std::vector<Stack> out;
    out.reserve(n);
    std::vector<Stack> stale;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (usable != bytes_) {
        stale.swap(free_);
        bytes_ = usable;
      }
      while (out.size() < n && !free_.empty()) {
        out.push_back(free_.back());
        free_.pop_back();
      }
    }
    for (const Stack& s : stale) unmap_stack(s);
#if defined(SRUMMA_FIBER_ASAN)
    // A fiber that finished by switching out never unwound its frames, so
    // their redzones are still poisoned.
    for (const Stack& s : out) __asan_unpoison_memory_region(s.lo, s.bytes);
#endif
    while (out.size() < n) out.push_back(map_stack(usable));
    return out;
  }

  void give(const Stack& s) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (s.bytes == bytes_) {
        free_.push_back(s);
        return;
      }
    }
    unmap_stack(s);  // the size changed while this stack was out
  }

 private:
  std::mutex mu_;
  std::size_t bytes_ = 0;    // usable size of every cached stack
  std::vector<Stack> free_;  // guarded by mu_
};

// Never destroyed, so a run on another thread can outlive static teardown.
StackCache& stack_cache() {
  static auto* cache = new StackCache();
  return *cache;
}

FiberState* create_fiber(Pool* pool, int index, const Stack& stack) {
  static_assert(sizeof(void*) <= 8, "fiber pointer smuggling assumes <=64bit");
  auto* f = new FiberState();
  f->pool = pool;
  f->index = index;
  f->stack = stack;
#if defined(SRUMMA_FIBER_TSAN)
  f->tsan_fiber = __tsan_create_fiber(0);
#endif
  SRUMMA_REQUIRE(getcontext(&f->ctx) == 0, "getcontext failed");
  f->ctx.uc_stack.ss_sp = f->stack.lo;
  f->ctx.uc_stack.ss_size = f->stack.bytes;
  f->ctx.uc_link = nullptr;  // fibers exit via switch_to_worker, never return
  const auto p = reinterpret_cast<std::uintptr_t>(f);
  const auto hi = static_cast<unsigned>(std::uint64_t{p} >> 32);
  const auto lo = static_cast<unsigned>(std::uint64_t{p} & 0xffffffffu);
  // Casting to void(*)() is the documented makecontext protocol; GCC's
  // -Wcast-function-type special-cases this exact target type.
  makecontext(&f->ctx, reinterpret_cast<void (*)()>(&fiber_trampoline), 2, hi,
              lo);
  return f;
}

void destroy_fiber(FiberState* f) {
#if defined(SRUMMA_FIBER_TSAN)
  __tsan_destroy_fiber(f->tsan_fiber);
#endif
  stack_cache().give(f->stack);
  delete f;
}

void worker_main(Pool* pool) {
  Worker w;
#if defined(SRUMMA_FIBER_TSAN)
  w.tsan_fiber = __tsan_get_current_fiber();
#endif
  t_worker = &w;
  for (;;) {
    FiberState* f = nullptr;
    {
      std::unique_lock<std::mutex> lk(pool->mu);
      pool->cv.wait(lk,
                    [&] { return !pool->runnable.empty() || pool->live == 0; });
      if (pool->runnable.empty()) break;  // live == 0: all fibers done
      f = pool->runnable.front();
      pool->runnable.pop_front();
    }
    t_fiber = f;
    switch_to_fiber(w, *f);
    t_fiber = nullptr;
    if (f->finished) {
      destroy_fiber(f);
      std::lock_guard<std::mutex> lk(pool->mu);
      if (--pool->live == 0) pool->cv.notify_all();
    } else {
      // Parked: requeue at the tail so every fiber keeps getting polled
      // (round-robin — the liveness argument for poll-yield parking).
      std::lock_guard<std::mutex> lk(pool->mu);
      pool->runnable.push_back(f);
      pool->cv.notify_one();
    }
  }
  t_worker = nullptr;
}

}  // namespace

bool on_fiber() noexcept { return t_fiber != nullptr; }

void yield() {
  FiberState* f = t_fiber;
  SRUMMA_REQUIRE(f != nullptr, "exec::yield called outside a fiber");
  switch_to_worker(*f, /*finishing=*/false);
}

void run_fibers(int n, int workers, std::size_t stack_bytes,
                const std::function<void(int)>& body) {
  SRUMMA_REQUIRE(n >= 0, "run_fibers: negative fiber count");
  SRUMMA_REQUIRE(!on_fiber(), "run_fibers: reentrant call from a fiber");
  if (n == 0) return;
  const std::vector<Stack> stacks =
      stack_cache().take(static_cast<std::size_t>(n), stack_bytes);
  Pool pool;
  pool.body = &body;
  pool.live = n;
  for (int i = 0; i < n; ++i)
    pool.runnable.push_back(
        create_fiber(&pool, i, stacks[static_cast<std::size_t>(i)]));

  int nw = workers;
  if (nw < 1) nw = 1;
  if (nw > n) nw = n;
  // The calling thread is worker 0, so nw == 1 spawns nothing: one
  // cooperative scheduler with zero thread churn.
  std::vector<std::thread> extra;
  extra.reserve(static_cast<std::size_t>(nw - 1));
  Worker* const saved_worker = t_worker;  // restore around nested use
  for (int i = 1; i < nw; ++i) extra.emplace_back(worker_main, &pool);
  worker_main(&pool);
  for (auto& t : extra) t.join();
  t_worker = saved_worker;
}

int default_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return env::integer<int>("SRUMMA_HARNESS_THREADS")
      .value_or(hw > 0 ? static_cast<int>(hw) : 1);
}

std::size_t default_stack_bytes() {
  return static_cast<std::size_t>(
             env::integer<int>("SRUMMA_HARNESS_STACK_KB").value_or(512)) *
         1024u;
}

}  // namespace srumma::exec
