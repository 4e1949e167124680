// A small fixed-size thread pool for the runtime substrates.
//
// The simulated machines execute per-rank loops whose iterations own
// disjoint state (counters, mailboxes, local buffers), so the only
// parallel primitive they need is a blocking parallel-for over rank ids.
// There is deliberately no work stealing and no task graph: ranks are
// handed out from a shared atomic counter, the caller participates in
// the work, and parallel_for_ranks returns only when every rank ran.
//
// Spin, then park. A clause step is a handful of fork-joins around a
// few microseconds of work each, so the hand-off itself must cost less
// than the work. The caller publishes a job by bumping an atomic
// generation word; idle lanes poll that word with a CPU pause and pick
// the job up without a mutex or a condvar. The caller joins the same
// way, polling an atomic count of ranks finished: it never waits for a
// lane that found no rank left, so a lane slow to wake (parked, or
// descheduled on a busy host) costs nothing when the others, the
// caller included, have done the work. Polling is bounded by one fixed
// spin window (kSpinWindow in thread_pool.cpp): a lane that sees no job
// within it parks on a condvar, and a caller whose ranks are still
// running after it parks too, so an idle pool never competes for CPU
// with other work in the process (the native target's OpenMP team,
// serve executors). Waking a parked lane costs the old condvar round
// trip; publishing to lanes that are all spinning costs one atomic
// increment. One wait is not bounded by the window: before it writes
// the next job, a call waits (yielding) for any lane still leaving the
// last one. Such a lane has no rank left to run, so the wait is short,
// but a lane descheduled in that gap holds up the next call until it
// runs again.
//
// Determinism contract: the pool never reorders *observable* results —
// callers write rank r's output into slot r and merge serially in rank
// order afterwards — so an engine running on a pool of size 1 and size N
// produces bit-identical statistics (DESIGN.md §5 invariant 4).
//
// Exceptions thrown by `body` are captured per rank; after the loop
// completes, the exception of the *lowest* failing rank is rethrown,
// matching what a serial ascending-rank loop would have surfaced first.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "support/math.hpp"

namespace vcal::support {

class ThreadPool {
 public:
  /// `threads` is the total concurrency including the calling thread;
  /// 0 means std::thread::hardware_concurrency() (at least 1).
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency (worker threads + the calling thread).
  int size() const noexcept {
    return static_cast<int>(workers_.size()) + 1;
  }

  /// Runs body(r) for every r in [0, n), blocking until all complete.
  /// With size() == 1 (or n == 1) the loop runs inline on the caller.
  /// Only one parallel_for_ranks is in flight at a time; concurrent
  /// callers serialize.
  void parallel_for_ranks(i64 n, const std::function<void(i64)>& body);

  /// Process-wide pool sized to the hardware, created on first use.
  static ThreadPool& shared();

  /// parallel_for_ranks calls completed (serial-bypass ones included).
  i64 joins() const noexcept {
    return joins_.load(std::memory_order_relaxed);
  }

  /// Nanoseconds callers spent blocked on the final join (waiting for
  /// workers to finish after exhausting their own share of ranks) —
  /// the pool's contribution to barrier time in traced runs.
  i64 join_wait_ns() const noexcept {
    return join_wait_ns_.load(std::memory_order_relaxed);
  }

  /// Times an idle worker lane gave up polling for a job and parked
  /// (a caller that parks on its join is not counted).
  i64 parks() const noexcept {
    return idle_.parks.load(std::memory_order_relaxed);
  }

  /// Ranks the calling thread ran itself (every rank of an inline call).
  /// Against the ranks handed out, it says how much of the parallelism
  /// the lanes delivered: a call whose lanes are parked and slow to wake
  /// finds the caller has run every rank by the time they arrive.
  i64 caller_ranks() const noexcept {
    return caller_ranks_.load(std::memory_order_relaxed);
  }

 private:
  /// Where threads sleep once polling has run out. wake() costs one
  /// atomic load while nobody sleeps.
  struct Gate {
    std::mutex m;
    std::condition_variable cv;
    std::atomic<int> sleepers{0};
    std::atomic<i64> parks{0};  // metrics only
  };

  void worker_loop();
  /// Runs ranks of the current job until none is left; returns how many.
  i64 drain();
  /// Polls ready() for the spin window, then parks on `gate` until it
  /// holds. ready() must read with seq_cst ordering (see wake()).
  template <typename Ready>
  void await(Gate& gate, Ready ready);
  static void wake(Gate& gate);

  std::vector<std::thread> workers_;

  // The hand-off words, one cache line each: the caller bumps
  // generation_ to publish a job and polls done_ (ranks finished) to
  // join, so it never waits for a lane that found no rank to run.
  alignas(64) std::atomic<std::uint64_t> generation_{0};
  alignas(64) std::atomic<i64> done_{0};
  alignas(64) std::atomic<i64> next_{0};
  // Lanes between seeing a job and leaving it. The caller writes the
  // job's fields only while no lane is inside and closed_ is set.
  alignas(64) std::atomic<int> inside_{0};
  std::atomic<bool> closed_{true};
  std::atomic<bool> stop_{false};

  // Current job, written by the caller before it bumps generation_.
  const std::function<void(i64)>* body_ = nullptr;
  i64 n_ = 0;

  Gate idle_;  // lanes waiting for a job
  Gate join_;  // the caller waiting for ranks other lanes still run

  std::mutex err_m_;
  std::vector<std::pair<i64, std::exception_ptr>> errors_;

  std::mutex run_m_;  // serializes parallel_for_ranks calls

  // Observability counters (metrics only; never affect scheduling).
  std::atomic<i64> joins_{0};
  std::atomic<i64> join_wait_ns_{0};
  std::atomic<i64> caller_ranks_{0};
};

}  // namespace vcal::support
