#pragma once
// Cooperative fiber pool for pooled rank execution.
//
// run_fibers(n, ...) runs `n` rank bodies as stackful fibers (ucontext)
// multiplexed over a bounded pool of OS worker threads.  A fiber that
// reaches a blocking point calls yield(): it is swapped out, re-enqueued at
// the tail of the runnable queue, and resumed later (possibly on a
// different worker) to re-check its predicate.  This poll-yield parking
// needs no wakeup plumbing — abort flags and deadlines keep working because
// the predicate is re-evaluated on every resume — and with one worker it
// degenerates into deterministic round-robin scheduling.
//
// Blocking code MUST NOT hold a mutex across yield(): unlock, yield,
// relock (see runtime/abortable_wait.hpp for the canonical wrappers).
//
// Stacks come from a process-wide cache shared by every run_fibers call:
// each is mmap'd once, with a PROT_NONE guard page at the low end, and a
// finished fiber returns it for the next run instead of unmapping it.
// Size comes from SRUMMA_HARNESS_STACK_KB (default 512 KiB); a run of
// another size unmaps the cached stacks.  Worker count comes from
// SRUMMA_HARNESS_THREADS (default: hardware concurrency, capped at the
// fiber count).  Fiber switches carry the TSan/ASan fiber annotations so
// the pooled scheduler runs clean under both sanitizers.

#include <cstddef>
#include <functional>

namespace srumma::exec {

/// True when the calling code runs on a pooled rank fiber (and yield() is
/// therefore legal).  Deliberately non-inline: the compiler must not cache
/// TLS addresses across a fiber switch.
[[nodiscard]] bool on_fiber() noexcept;

/// Cooperatively give up the worker; the fiber is re-enqueued at the tail
/// of the runnable queue and resumes later.  Must only be called on a
/// fiber, and never while holding a mutex.
void yield();

/// Run bodies 0..n-1 as fibers over `workers` OS threads (clamped to
/// [1, n]), on cached stacks of `stack_bytes` rounded up to whole pages.
/// The calling thread acts as one of the workers, so workers==1 spawns no
/// threads at all.  Blocks until every fiber finishes.  Bodies
/// must not let exceptions escape (catch them and record, as Team::run
/// does).  Not reentrant from a fiber — callers gate on !on_fiber().
void run_fibers(int n, int workers, std::size_t stack_bytes,
                const std::function<void(int)>& body);

/// SRUMMA_HARNESS_THREADS, else std::thread::hardware_concurrency(), >= 1.
/// Throws srumma::Error unless the variable is unset or an integer in
/// [1, 4096].
[[nodiscard]] int default_workers();

/// SRUMMA_HARNESS_STACK_KB * 1024, else 512 KiB.  Throws srumma::Error
/// unless the variable is unset or an integer in [64, 65536].
[[nodiscard]] std::size_t default_stack_bytes();

}  // namespace srumma::exec
