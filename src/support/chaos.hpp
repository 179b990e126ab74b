// Deterministic fault injection for the concurrent layer (the "chaos"
// subsystem).
//
// Wasp's correctness rests on a delicate steal/terminate protocol; the OS
// scheduler alone only explores a thin slice of its interleavings. This
// module defines *named injection points* inside the concurrent structures
// and the Wasp scheduler (steal failure, delayed `curr` publication, forced
// yields around contended CAS operations, chunk-pool allocation failure,
// spurious wakeup in the termination scan). A seeded ChaosEngine decides,
// per point visit, whether the fault fires; every firing decision comes from
// a per-thread PRNG stream derived only from (seed, tid), so a failing run
// is reproducible from its seed (exactly, for single-threaded runs; per
// thread, for parallel runs).
//
// Cost model:
//  * With the build option WASP_CHAOS=OFF (the default) the injection-point
//    macros below compile to constant no-ops — zero overhead, no branches.
//  * With WASP_CHAOS=ON each point costs one thread-local load + branch when
//    no engine is installed, and one PRNG draw when one is.
//
// The engine records every fired point as (tid, seq, point); tests print
// this trace (with the seed) when a validated run fails, and replaying the
// seed reproduces the identical per-thread injection sequence.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "support/padded.hpp"
#include "support/random.hpp"

namespace wasp::chaos {

/// The named injection points. Keep point_name() in sync.
enum class Point : std::uint8_t {
  kStealFail = 0,      ///< a deque/SMQ steal attempt is forced to fail
  kDelayCurrPublish,   ///< yield right before publishing a `curr` level
  kYieldBeforeCas,     ///< yield immediately before a contended CAS
  kYieldAfterCas,      ///< yield immediately after a CAS (won or lost)
  kChunkAllocFail,     ///< chunk-pool freelist treated as exhausted
  kSpuriousWakeup,     ///< termination scan pretends it saw work
  kRemoteFlushDelay,   ///< yield before publishing a remote relaxation batch
  kRemoteDrainDelay,   ///< yield before draining a fragment's remote queue
};
inline constexpr std::size_t kNumPoints = 8;

/// Stable short name of a point ("steal-fail", "delay-curr-publish", ...).
const char* point_name(Point p);

/// Per-point firing probabilities in units of 1/65536. A named preset
/// collection is what the chaos test grid iterates over.
struct Policy {
  std::array<std::uint16_t, kNumPoints> rate{};  // all zero = never fires
  const char* name = "off";

  [[nodiscard]] std::uint16_t rate_of(Point p) const {
    return rate[static_cast<std::size_t>(p)];
  }

  static Policy off();
  /// Every point fires with probability r/65536.
  static Policy uniform(std::uint16_t r);
  /// Heavy steal failures + CAS-adjacent yields (exercises Algorithm 2).
  static Policy steal_storm();
  /// Frequent chunk-pool allocation failures (exercises arena fallback).
  static Policy alloc_pressure();
  /// Delayed curr publication + spurious wakeups (exercises §4.3
  /// termination and the kStealingPriority race window).
  static Policy termination_fuzz();
};

/// The preset policies the chaos grids sweep (off + the four above).
std::vector<Policy> standard_policies();

/// One fired injection point. `seq` counts *visited* points on that thread,
/// so a trace identifies which visit fired, not just how many did.
struct Event {
  int tid;
  std::uint32_t seq;
  Point point;

  friend bool operator==(const Event&, const Event&) = default;
};

/// A seeded fault-injection engine for one run. Thread-safe: each thread
/// draws from its own PRNG stream and appends to its own event log, so
/// firing decisions on thread t are a pure function of (seed, t, number of
/// points previously visited by t).
class Engine {
 public:
  Engine(std::uint64_t seed, const Policy& policy, int max_threads,
         bool record = true);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Decides whether point `p` fires for thread `tid`; records it if so.
  bool fire(int tid, Point p);

  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] const Policy& policy() const { return policy_; }
  [[nodiscard]] int max_threads() const {
    return static_cast<int>(threads_.size());
  }

  /// Total fired events across all threads. Safe to call only when no
  /// thread is concurrently calling fire().
  [[nodiscard]] std::uint64_t fired_count() const;

  /// The fired events ordered by (tid, seq). Same quiescence requirement.
  [[nodiscard]] std::vector<Event> trace() const;

 private:
  struct PerThread {
    Xoshiro256 rng{1};
    std::uint32_t seq = 0;
    std::vector<Event> events;
  };

  std::uint64_t seed_;
  Policy policy_;
  bool record_;
  std::vector<CachePadded<PerThread>> threads_;
};

/// "t0#12:steal-fail t1#3:spurious-wakeup ..." — the replayable schedule.
std::string format_trace(const std::vector<Event>& events);

/// The failure report the chaos tests print: names the seed, policy, thread
/// count and the recorded injection sequence, plus reproduction
/// instructions. `what` is the validation error that triggered it.
std::string failure_report(const Engine& engine, const std::string& what);

namespace detail {
struct Binding {
  Engine* engine = nullptr;
  int tid = 0;
};
// constinit: statically initialized, so no TLS init-guard wrapper is emitted
// (the guard's lazy-init store is what UBSan would otherwise flag, and the
// wrapper call would tax every injection-point visit).
inline constinit thread_local Binding tls_binding{};
}  // namespace detail

/// Binds `engine` to the calling thread as logical thread `tid` for the
/// lifetime of the guard. Passing nullptr is a no-op (so callers can thread
/// an optional engine through unconditionally).
class ScopedInstall {
 public:
  ScopedInstall(Engine* engine, int tid) : saved_(detail::tls_binding) {
    if (engine != nullptr) detail::tls_binding = {engine, tid};
  }
  ~ScopedInstall() { detail::tls_binding = saved_; }

  ScopedInstall(const ScopedInstall&) = delete;
  ScopedInstall& operator=(const ScopedInstall&) = delete;

 private:
  detail::Binding saved_;
};

/// Consults the calling thread's installed engine. False when none.
inline bool fire(Point p) {
  detail::Binding& b = detail::tls_binding;
  if (b.engine == nullptr) return false;
  return b.engine->fire(b.tid, p);
}

/// fire() + std::this_thread::yield() when it fires.
inline void maybe_yield(Point p) {
  if (fire(p)) std::this_thread::yield();
}

/// True when an engine is installed on this thread — lets code skip setup
/// work for chaos-only paths.
inline bool active() { return detail::tls_binding.engine != nullptr; }

}  // namespace wasp::chaos

// Injection-point hooks. With WASP_CHAOS=OFF these are compile-time
// constants: the enclosing `if (WASP_CHAOS_FAIL(...))` folds away entirely.
#if defined(WASP_CHAOS_ENABLED) && WASP_CHAOS_ENABLED
#define WASP_CHAOS_FAIL(point) (::wasp::chaos::fire(point))
#define WASP_CHAOS_YIELD(point) (::wasp::chaos::maybe_yield(point))
#else
#define WASP_CHAOS_FAIL(point) (false)
#define WASP_CHAOS_YIELD(point) ((void)0)
#endif
