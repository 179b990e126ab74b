// Cooperative cancellation for in-flight SSSP runs.
//
// A CancelToken is a single atomic word the run's owner (service watchdog,
// bench harness, user code) flips and every worker polls at cheap
// boundaries: chunk drains and steal sweeps in Wasp, round tops in the
// synchronous algorithms, pop loops in the MultiQueue family. Workers never
// block on it — a cancelled run unwinds through the existing termination
// protocol (async workers publish idle priority and return from the team
// lambda; synchronous workers fold the flag into the round's shared `done`
// decision so everyone leaves at the same barrier).
//
// The token also carries an optional deadline. Low-frequency polling sites
// call poll(), which checks the flag and the clock and self-cancels with
// kDeadline when the budget is gone — so a deadline is enforced even when
// no external watchdog ever fires.
//
// Memory ordering: the cancel flag carries no data — the dispatching
// front-end re-checks the token after the team joins (an ordering point)
// and discards partial state by bumping the distance epoch. Polls are
// therefore relaxed loads; the cancel CAS uses acq_rel only so reason()
// observers on other threads see a settled value.
#pragma once

#include <chrono>
#include <cstdint>

#include "verify/checked_atomic.hpp"

namespace wasp {

/// Why a run was cancelled. First request wins; later requests are ignored.
enum class CancelReason : std::uint32_t {
  kNone = 0,      ///< not cancelled
  kUser = 1,      ///< explicit request (service shutdown, client abort)
  kDeadline = 2,  ///< per-query deadline/budget expired
};

/// Name of `r` ("none", "user", "deadline").
inline const char* to_string(CancelReason r) {
  switch (r) {
    case CancelReason::kNone: return "none";
    case CancelReason::kUser: return "user";
    case CancelReason::kDeadline: return "deadline";
  }
  return "?";
}

/// One-shot cancellation flag + optional deadline for a single run.
///
/// Thread-safety: request_cancel() / cancel_requested() / poll() may be
/// called from any thread. arm() and set_deadline() are owner-side setup —
/// call them before the run starts (the front-end's team fork orders them
/// against worker polls).
class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cancellation with `reason`. The first caller wins; the call
  /// is idempotent and safe from any thread (including polling workers
  /// self-cancelling on deadline expiry).
  void request_cancel(CancelReason reason) noexcept {
    std::uint32_t expected = 0;
    // acq_rel CAS: settles the reason exactly once; acquire on failure is
    // unnecessary (losers don't read anything) so relaxed there.
    state_.compare_exchange_strong(
        expected, static_cast<std::uint32_t>(reason),
        std::memory_order_acq_rel, std::memory_order_relaxed);
  }

  /// Hot-path poll: has anyone requested cancellation? Relaxed load — the
  /// flag carries no data (see file comment); cost is one cached load.
  [[nodiscard]] bool cancel_requested() const noexcept {
    return state_.load(std::memory_order_relaxed) != 0;
  }

  /// Low-frequency poll: flag check plus deadline check. Self-cancels with
  /// kDeadline once the clock passes the armed deadline. Call at round
  /// tops, steal-sweep entries, and termination scans — anywhere a clock
  /// read is affordable.
  bool poll() noexcept {
    if (cancel_requested()) return true;
    if (deadline_ns_ != 0 && now_ns() >= deadline_ns_) {
      request_cancel(CancelReason::kDeadline);
      return true;
    }
    return false;
  }

  /// The settled reason (kNone while the run is live). Acquire pairs with
  /// the release half of the winning CAS in request_cancel().
  [[nodiscard]] CancelReason reason() const noexcept {
    return static_cast<CancelReason>(state_.load(std::memory_order_acquire));
  }

  /// Arms an absolute deadline; poll() self-cancels past it. Owner-side
  /// setup, before the run starts.
  void set_deadline(Clock::time_point deadline) noexcept {
    deadline_ns_ = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            deadline.time_since_epoch())
            .count());
  }

  /// Convenience: deadline = now + budget. A zero/negative budget arms
  /// nothing (no deadline).
  void set_budget(std::chrono::nanoseconds budget) noexcept {
    if (budget.count() > 0) set_deadline(Clock::now() + budget);
  }

  /// Re-arms the token for a fresh run: clears the flag and the deadline.
  /// Owner-side setup only — never call while a run is polling the token.
  void reset() noexcept {
    deadline_ns_ = 0;
    // relaxed: reset happens-before the next run's fork, which orders it
    // against that run's polls.
    state_.store(0, std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] static std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
  }

  verify::atomic<std::uint32_t> state_{0};  // CancelReason; 0 = live
  std::uint64_t deadline_ns_ = 0;           // steady-clock ns; 0 = none
};

}  // namespace wasp
