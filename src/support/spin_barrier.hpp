// Sense-reversing centralized barrier with an instrumentation hook.
//
// The round barrier of the synchronous baselines (GAP-style delta-stepping,
// Julienne, delta*/rho/radius-stepping, Bellman-Ford), all of which run
// through RoundDriver (sssp/rounds.hpp): three waits per round end, plus any
// an algorithm's own rule adds. The barrier accumulates per-thread wait
// time so the Figure-1 experiment can report the barrier share of execution.
//
// The barrier spins briefly and then yields: on oversubscribed machines a
// pure spin barrier would starve the threads it is waiting for.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "support/padded.hpp"
#include "support/timer.hpp"
#include "verify/checked_atomic.hpp"

namespace wasp {

/// Centralized sense-reversing barrier for a fixed set of participants.
class SpinBarrier {
 public:
  explicit SpinBarrier(int num_threads)
      : num_threads_(num_threads), wait_ns_(static_cast<std::size_t>(num_threads)) {}

  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  /// Blocks until all participants arrive. `tid` identifies the caller and is
  /// only used to attribute wait time.
  void wait(int tid) {
    Timer t;
    // Sense-reversing barrier. The relaxed sense read is private pacing
    // state (only this thread compares against it); the acq_rel arrival
    // fetch_add makes every participant's pre-barrier writes visible to the
    // last arriver, whose release sense_ flip then publishes the whole
    // round to the acquire spin loops below. arrived_ resets relaxed: only
    // the flipper touches it between rounds.
    const bool my_sense = !sense_.load(std::memory_order_relaxed);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) == num_threads_ - 1) {
      arrived_.store(0, std::memory_order_relaxed);
      sense_.store(my_sense, std::memory_order_release);
    } else {
      int spins = 0;
      while (sense_.load(std::memory_order_acquire) != my_sense) {
        if (++spins > kSpinsBeforeYield) std::this_thread::yield();
      }
    }
    wait_ns_[static_cast<std::size_t>(tid)].value += t.nanoseconds();
  }

  /// Total nanoseconds thread `tid` has spent waiting at this barrier.
  [[nodiscard]] std::uint64_t wait_ns(int tid) const {
    return wait_ns_[static_cast<std::size_t>(tid)].value;
  }

  /// Sum of wait time across all threads, in nanoseconds.
  [[nodiscard]] std::uint64_t total_wait_ns() const {
    std::uint64_t total = 0;
    for (const auto& w : wait_ns_) total += w.value;
    return total;
  }

  void reset_wait_times() {
    for (auto& w : wait_ns_) w.value = 0;
  }

  [[nodiscard]] int num_threads() const { return num_threads_; }

 private:
  static constexpr int kSpinsBeforeYield = 64;

  const int num_threads_;
  // Checked atomics: the happens-before model (and the scheduler harness)
  // must see the barrier's phase edges, or a model-run delta-stepping round
  // would report every cross-phase access as racy. Zero-cost when
  // WASP_VERIFY=OFF.
  verify::atomic<int> arrived_{0};
  verify::atomic<bool> sense_{false};
  std::vector<CachePadded<std::uint64_t>> wait_ns_;
};

}  // namespace wasp
