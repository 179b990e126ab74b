// Deterministic cooperative scheduler for end-to-end model checking.
//
// A Scheduler serializes a team of bound threads onto one execution token
// and hands the token around at schedule points — the entry of every
// instrumented operation (checked atomic load/store/RMW/CAS, thread_fence,
// WASP_VERIFY_RD/WR). Because the token only ever moves at events the
// happens-before model observes, the interleaving of *model* events is a
// pure function of the seed: the harness replays a failing schedule
// bit-for-bit by re-running with the same seed (WASP_VERIFY_SEED pins it),
// and `schedule_hash()` fingerprints the schedule so replay tests can
// assert bitwise equality.
//
// Protocol:
//  * Each participant of a ThreadTeam job constructs a ScopedSchedule at
//    the top of its lambda. If a Scheduler is installed this binds the
//    thread to the current Session and parks it in attach(), which doubles
//    as a start barrier: scheduling decisions begin only once all
//    `Options::threads` participants are present, so the decision sequence
//    does not depend on OS thread startup order.
//  * Exactly one thread (`current_`) runs at a time. At every schedule
//    point it flips a seeded coin (switch_rate/65536) and may pass the
//    token to another runnable thread, chosen uniformly by the same PRNG.
//  * When a thread's lambda returns, ~ScopedSchedule detaches it: the token
//    moves on, and when the last participant detaches the scheduler resets
//    so the next team.run round can reuse it.
//
// Liveness: every spin-wait in the instrumented code (Chase-Lev top/bottom,
// Wasp's termination scan, SpinBarrier) spins *through* instrumented loads,
// and so does a bound verify::atomic::wait (Wasp's parked workers), so a
// parked thread's waiters always reach schedule points and the token can
// always make progress; real mutexes in scope (the chunk arena) contain
// no instrumented operations, so the token never blocks on a held lock.
// Switch decisions are probabilistic, not fair, but every runnable thread
// is picked with positive probability, so schedules terminate almost
// surely.
//
// The class compiles in every flavor (context.cpp references it
// unconditionally) but only does useful work under WASP_VERIFY builds,
// where instrumented code actually reaches schedule_point().
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "support/random.hpp"
#include "verify/context.hpp"
#include "verify/vector_clock.hpp"

namespace wasp::verify {

class Scheduler {
 public:
  struct Options {
    int threads = 2;          ///< participants per team round (== team size)
    std::uint64_t seed = 1;   ///< drives every scheduling decision
    std::uint16_t switch_rate = 16384;  ///< P(preempt)/65536 per point
  };

  explicit Scheduler(const Options& options)
      : options_(options),
        attached_(static_cast<std::size_t>(options.threads), 0),
        runnable_(static_cast<std::size_t>(options.threads), 0),
        rng_(hash_mix(options.seed ^ 0x5C7EDD1CEULL)) {
    if (options.threads < 1 || options.threads > kMaxVerifyThreads)
      throw std::invalid_argument("verify::Scheduler: bad thread count");
    void* expected = nullptr;
    if (!detail::g_scheduler.compare_exchange_strong(
            expected, this, std::memory_order_acq_rel))
      throw std::logic_error(
          "verify::Scheduler: a scheduler is already installed");
  }

  ~Scheduler() {
    detail::g_scheduler.store(nullptr, std::memory_order_release);
  }

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// The installed scheduler, or nullptr. At most one exists at a time.
  static Scheduler* current() {
    return static_cast<Scheduler*>(
        detail::g_scheduler.load(std::memory_order_acquire));
  }

  /// Joins the current round as participant `tid` and blocks until all
  /// participants have joined *and* this thread holds the token.
  void attach(int tid) {
    std::unique_lock<std::mutex> lk(mu_);
    if (tid < 0 || tid >= options_.threads)
      throw std::invalid_argument("verify::Scheduler: tid out of range");
    const auto i = static_cast<std::size_t>(tid);
    attached_[i] = 1;
    runnable_[i] = 1;
    ++n_attached_;
    ++n_runnable_;
    if (n_attached_ == options_.threads) {
      running_ = true;
      current_ = pick_runnable_locked();
      mix(static_cast<std::uint64_t>(current_));
      cv_.notify_all();
    }
    cv_.wait(lk, [&] { return running_ && current_ == tid; });
  }

  /// Leaves the round; the token moves on. The last leaver resets the
  /// scheduler for the next round.
  void detach(int tid) {
    std::unique_lock<std::mutex> lk(mu_);
    runnable_[static_cast<std::size_t>(tid)] = 0;
    --n_runnable_;
    if (n_runnable_ == 0) {
      std::fill(attached_.begin(), attached_.end(), 0);
      n_attached_ = 0;
      running_ = false;
      current_ = -1;
      ++rounds_;
    } else if (current_ == tid) {
      current_ = pick_runnable_locked();
      mix(static_cast<std::uint64_t>(current_));
    }
    cv_.notify_all();
  }

  /// Schedule point: called by instrumented operations (via
  /// schedule_point in context.hpp). May pass the token and block until it
  /// comes back.
  void yield(int tid) {
    std::unique_lock<std::mutex> lk(mu_);
    if (!running_ || current_ != tid) return;  // bound but unattached thread
    mix(static_cast<std::uint64_t>(tid) | (1ULL << 32));
    ++points_;
    if (n_runnable_ > 1 && rng_.next_below(65536) < options_.switch_rate) {
      current_ = pick_runnable_locked(tid);
      mix(static_cast<std::uint64_t>(current_));
      ++switches_;
      cv_.notify_all();
      cv_.wait(lk, [&] { return current_ == tid; });
    }
  }

  /// FNV-1a fingerprint of every decision made so far: token grants at
  /// attach/detach, every schedule point, and every switch target. Two runs
  /// with equal hashes executed the same schedule bit-for-bit.
  [[nodiscard]] std::uint64_t schedule_hash() const {
    std::lock_guard<std::mutex> lk(mu_);
    return hash_;
  }

  [[nodiscard]] std::uint64_t schedule_points() const {
    std::lock_guard<std::mutex> lk(mu_);
    return points_;
  }

  [[nodiscard]] std::uint64_t switches() const {
    std::lock_guard<std::mutex> lk(mu_);
    return switches_;
  }

  [[nodiscard]] std::uint64_t rounds() const {
    std::lock_guard<std::mutex> lk(mu_);
    return rounds_;
  }

  [[nodiscard]] const Options& options() const { return options_; }

 private:
  /// Uniform pick among runnable participants, excluding `exclude` (the
  /// yielding thread); caller holds mu_ and guarantees one exists.
  int pick_runnable_locked(int exclude = -1) {
    int count = 0;
    for (int t = 0; t < options_.threads; ++t)
      if (runnable_[static_cast<std::size_t>(t)] != 0 && t != exclude) ++count;
    auto r = static_cast<int>(
        rng_.next_below(static_cast<std::uint64_t>(count)));
    for (int t = 0; t < options_.threads; ++t) {
      if (runnable_[static_cast<std::size_t>(t)] == 0 || t == exclude)
        continue;
      if (r-- == 0) return t;
    }
    return -1;  // unreachable: caller guarantees a runnable thread
  }

  void mix(std::uint64_t v) {
    hash_ = (hash_ ^ v) * 1099511628211ULL;  // FNV-1a step
  }

  Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<char> attached_;
  std::vector<char> runnable_;
  int n_attached_ = 0;
  int n_runnable_ = 0;
  int current_ = -1;
  bool running_ = false;
  Xoshiro256 rng_;
  std::uint64_t hash_ = 1469598103934665603ULL;  // FNV-1a offset basis
  std::uint64_t points_ = 0;
  std::uint64_t switches_ = 0;
  std::uint64_t rounds_ = 0;
};

#if defined(WASP_VERIFY_ENABLED) && WASP_VERIFY_ENABLED

/// Per-participant hook for ThreadTeam lambdas: when a Scheduler is
/// installed, binds the thread to the current Session and joins the round;
/// otherwise does nothing, so instrumented algorithms run unchanged outside
/// the harness. Place it first in the team lambda.
class ScopedSchedule {
 public:
  explicit ScopedSchedule(int tid)
      : sched_(Scheduler::current()),
        bind_(sched_ != nullptr ? Session::current() : nullptr, tid),
        tid_(tid) {
    if (sched_ != nullptr) sched_->attach(tid_);
  }

  ~ScopedSchedule() {
    if (sched_ != nullptr) sched_->detach(tid_);
  }

  ScopedSchedule(const ScopedSchedule&) = delete;
  ScopedSchedule& operator=(const ScopedSchedule&) = delete;

 private:
  Scheduler* sched_;
  ScopedBind bind_;
  int tid_;
};

#else  // !WASP_VERIFY_ENABLED

/// Zero-cost stub: the instrumentation-free build has no model events, so
/// there is nothing to schedule.
class ScopedSchedule {
 public:
  explicit ScopedSchedule(int) {}
};

#endif  // WASP_VERIFY_ENABLED

}  // namespace wasp::verify
