#include "support/thread_pool.hpp"

#include <algorithm>
#include <chrono>

namespace vcal::support {

namespace {

// How long an idle lane, or a caller waiting on its join, polls before
// it parks. Long enough to span the serial gap between the fork-joins
// of one clause step (tens of microseconds), short enough that an idle
// pool gives its cores back almost at once. A constant, not a knob: the
// gap it must span is set by the engine's step structure, not by the
// program or the caller, and a pool that never parks would steal cores
// from other work in the process.
constexpr auto kSpinWindow = std::chrono::microseconds(75);

inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    threads = hw == 0 ? 1 : static_cast<int>(hw);
  }
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int t = 1; t < threads; ++t)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_relaxed);
  generation_.fetch_add(1);  // publishes stop_ to polling and parked lanes
  wake(idle_);
  for (std::thread& w : workers_) w.join();
}

template <typename Ready>
void ThreadPool::await(Gate& gate, Ready ready) {
  if (ready()) return;
  const auto deadline = std::chrono::steady_clock::now() + kSpinWindow;
  do {
    for (int i = 0; i < 64; ++i) {
      cpu_pause();
      if (ready()) return;
    }
  } while (std::chrono::steady_clock::now() < deadline);
  gate.parks.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock(gate.m);
  // Dekker pairing with wake(): this increment and the waker's store
  // are both seq_cst, so either ready() below sees the store or the
  // waker sees a sleeper and notifies under the lock.
  gate.sleepers.fetch_add(1);
  gate.cv.wait(lock, ready);
  gate.sleepers.fetch_sub(1);
}

void ThreadPool::wake(Gate& gate) {
  if (gate.sleepers.load() == 0) return;
  { std::lock_guard<std::mutex> lock(gate.m); }
  gate.cv.notify_all();
}

i64 ThreadPool::drain() {
  for (i64 ran = 0;; ++ran) {
    i64 r = next_.fetch_add(1, std::memory_order_relaxed);
    if (r >= n_) return ran;
    try {
      (*body_)(r);
    } catch (...) {
      std::lock_guard<std::mutex> lock(err_m_);
      errors_.emplace_back(r, std::current_exception());
    }
    if (done_.fetch_add(1) + 1 == n_) wake(join_);
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    await(idle_, [&] { return generation_.load() != seen; });
    // A lane that wakes late may find its job closed, or a later one
    // open: it takes whatever ranks are left, or none.
    seen = generation_.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_relaxed)) return;
    // Dekker pairing with the caller's close: either this lane sees
    // the job closed and leaves its fields alone, or the caller sees
    // the lane inside and waits before it writes the next job.
    inside_.fetch_add(1);
    if (!closed_.load()) drain();
    inside_.fetch_sub(1);
  }
}

void ThreadPool::parallel_for_ranks(i64 n,
                                    const std::function<void(i64)>& body) {
  if (n <= 0) return;
  if (workers_.empty() || n == 1) {
    caller_ranks_.fetch_add(n, std::memory_order_relaxed);
    for (i64 r = 0; r < n; ++r) body(r);
    joins_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::lock_guard<std::mutex> serialize(run_m_);
  // A lane that saw the last job open may still be leaving it. It has
  // no rank left to run, so this wait is short unless the lane was
  // descheduled in between; it is not bounded by the spin window.
  while (inside_.load() != 0) std::this_thread::yield();
  body_ = &body;
  n_ = n;
  next_.store(0, std::memory_order_relaxed);
  done_.store(0, std::memory_order_relaxed);
  errors_.clear();
  closed_.store(false);
  generation_.fetch_add(1);  // publishes the job (seq_cst, see await)
  wake(idle_);
  // The caller is one of the pool's lanes.
  caller_ranks_.fetch_add(drain(), std::memory_order_relaxed);
  // Join on ranks finished, not on lanes: a lane that is slow to wake
  // (parked, or descheduled on a busy host) and finds nothing left
  // holds nobody up.
  if (done_.load() != n) {
    const auto wait0 = std::chrono::steady_clock::now();
    await(join_, [&] { return done_.load() == n; });
    join_wait_ns_.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wait0)
            .count(),
        std::memory_order_relaxed);
  }
  closed_.store(true);
  joins_.fetch_add(1, std::memory_order_relaxed);
  if (!errors_.empty()) {
    auto lowest = std::min_element(
        errors_.begin(), errors_.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::rethrow_exception(lowest->second);
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(0);
  return pool;
}

}  // namespace vcal::support
