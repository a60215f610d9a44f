#pragma once
// Blocking waits that cannot outlive a failing team, in both execution
// modes.
//
// When any rank throws, Team::abort() flips a flag; every blocking wait in
// the communication layers polls that flag so a failure on one rank
// propagates instead of deadlocking the remaining ranks.
//
// On a pooled-mode fiber (exec::on_fiber()), a wait must never block the
// OS worker: these wrappers park by dropping the lock, yielding the fiber,
// and re-polling the predicate on resume.  Abort semantics are unchanged
// because the abort flag is part of the re-polled condition.  The lock is
// NEVER held across a yield.

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "runtime/fiber_exec.hpp"
#include "runtime/team.hpp"
#include "util/error.hpp"

namespace srumma {

template <typename Pred>
void wait_abortable(std::unique_lock<std::mutex>& lock,
                    std::condition_variable& cv, Team& team, Pred pred) {
  if (exec::on_fiber()) {
    while (!pred()) {
      if (team.aborted()) throw Error("team aborted while waiting");
      lock.unlock();
      exec::yield();
      lock.lock();
    }
    return;
  }
  while (!pred()) {
    if (team.aborted()) throw Error("team aborted while waiting");
    cv.wait_for(lock, std::chrono::milliseconds(20));
  }
}

}  // namespace srumma
