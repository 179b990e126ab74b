// Verification session: the happens-before model behind checked_atomic.
//
// A Session models the C11 memory model for every instrumented operation
// (see checked_atomic.hpp) issued by a bound thread:
//
//  * Each bound thread carries a vector clock; release stores snapshot it,
//    acquire loads join it, and fences arm pending release/acquire clocks
//    per the C11 fence rules. seq_cst *operations* additionally synchronize
//    through a global SC clock (a sound strengthening of C11's S order);
//    seq_cst *fences* deliberately do not — they get pure S-membership
//    semantics (a slot in S plus the fence-publication value floors below),
//    which is exactly what C11 grants them. Two seq_cst fences alone do not
//    create happens-before without an atomic mediator.
//  * Each checked atomic keeps a bounded history of stores. A load may
//    return any store not superseded by one the loading thread already
//    "knows" (per its clock) — a seeded PRNG picks among the admissible
//    stale values. This is what lets the mutation tester kill weakened
//    orderings on x86, where the hardware would otherwise hide them: drop a
//    release edge and the reader's clock stops excluding stale values, so
//    the linearizability harness observes the resulting lost/duplicated
//    elements. RMW operations always read the latest store (C11 atomicity)
//    and continue release sequences.
//  * The SC total order S defaults to the execution order of seq_cst events
//    under the model lock — one admissible choice of S. With
//    Options::sc_reorder_window > 0 the session *searches* over admissible
//    alternatives: each seq_cst freshness window is re-validated against
//    seeded local reorderings of the recent S suffix (bounded by the
//    window), dropping a value floor only when moving the publishing event
//    past the reader's horizon violates neither happens-before nor
//    same-object coherence — i.e. only when some valid S admits the stale
//    read. Replayable via the session seed (WASP_VERIFY_SEED).
//  * Plain (non-atomic) cells annotated with WASP_VERIFY_RD/WR are checked
//    for data races: an access that is not ordered after the previous
//    conflicting access by happens-before is reported with both sites
//    (file:line, thread, epoch). Cells accessed through
//    verify::plain_load/plain_store are additionally *value-modeled*: a
//    read may return any admissible stale value from the cell's recorded
//    store history (same clock/coherence floors as atomics), so a missing
//    hb edge shows up as wrong data, not just a race verdict.
//
// Sessions are scoped and exclusive (one at a time, enforced). Threads bind
// with ScopedBind; unbound threads fall through to plain std::atomic
// behavior, so code under instrumentation runs unchanged outside a session.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <source_location>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/random.hpp"
#include "verify/vector_clock.hpp"

namespace wasp::verify {

/// A stable code location (source_location::file_name has static storage).
struct Site {
  const char* file = "?";
  std::uint32_t line = 0;
};

inline Site site_of(const std::source_location& loc) {
  return Site{loc.file_name(), loc.line()};
}

/// Short "file.hpp:123" form (basename only) for diagnostics.
std::string site_str(const Site& s);

class Session {
 public:
  struct Options {
    int threads = 2;               ///< logical threads the run will bind
    std::uint64_t seed = 1;        ///< drives the stale-value PRNG streams
    int history_window = 12;       ///< per-object store history bound
    std::uint16_t stale_rate = 32768;  ///< P(prefer stale)/65536 per load
    std::size_t max_diagnostics = 64;
    /// SC-order exploration: how many positions a seq_cst event may slide
    /// past a reader's horizon when re-validating a freshness window under
    /// an alternative admissible S (0 = S pinned to model-lock order, the
    /// historical behavior). Sliding is refused when the interval contains
    /// an event ordered after the publisher by happens-before or a seq_cst
    /// access to the same object, so every drop corresponds to a valid S.
    int sc_reorder_window = 0;
  };

  explicit Session(const Options& options);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// The installed session, or nullptr. At most one exists at a time.
  static Session* current();

  /// The session the calling thread is bound to (via ScopedBind), with its
  /// logical tid; nullptr when unbound or the session is gone.
  static Session* bound(int& tid);

  [[nodiscard]] const Options& options() const { return options_; }
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  /// The model lock. Every instrumented operation runs under it, so model
  /// state needs no further synchronization (and the lock doubles as the
  /// real-hardware ordering that keeps the *actual* execution well-defined
  /// while the model tracks the weak behaviors).
  [[nodiscard]] std::mutex& mu() { return mu_; }

  // --- per-thread model state (call with mu_ held) -----------------------
  struct ThreadState {
    VectorClock clock;
    VectorClock pending_release;   ///< armed by a release fence
    bool has_pending_release = false;
    VectorClock pending_acquire;   ///< accumulated by relaxed loads
    std::uint64_t sc_fence_time = 0;  ///< S-position of the last seq_cst fence
    /// Every seq_cst fence this thread executed: (S-position, the thread's
    /// own event counter at the fence). Monotone in both components; lets
    /// sc_publish_time() answer "when did this thread's store at epoch e
    /// become published by one of its later seq_cst fences".
    std::vector<std::pair<std::uint64_t, std::uint32_t>> fence_log;
    Xoshiro256 rng{1};
  };

  ThreadState& thread_state(int tid) {
    return threads_[static_cast<std::size_t>(tid)];
  }
  VectorClock& sc_clock() { return sc_clock_; }

  /// Advances the SC total order S and returns the new position. Every
  /// seq_cst store/RMW/fence occupies one slot; stores stamp it on their
  /// history entry, fences record it per thread, and loads use the two as
  /// value floors (see checked_atomic.hpp admissible_pick). When SC
  /// exploration is on, the event (issuer, epoch, object, clock) is also
  /// recorded in a bounded ring so sc_floor_is_firm can check whether a
  /// later reordering of S would be admissible. `addr` is the stored-to
  /// object, or nullptr for a fence. Call with mu_ held.
  std::uint64_t take_sc_slot(int tid, const void* addr);

  /// SC-order exploration hook (see Options::sc_reorder_window): asked by
  /// admissible_pick before it applies an S-order value floor from the
  /// event at S-position `published` against a reader whose horizon is
  /// `horizon`. Returns true when the floor must stand — either
  /// exploration is off, the publisher cannot legally slide past the
  /// horizon in any admissible S (happens-before or same-object coherence
  /// pins it, or the interval outruns the window/ring), or the seeded coin
  /// declines to explore this window. `obj` is the object being loaded.
  /// Call with mu_ held.
  bool sc_floor_is_firm(int tid, const void* obj, std::uint64_t published,
                        std::uint64_t horizon);

  /// Position-aware strict order on S slots. Dropping a floor *commits* an
  /// S reordering: the publisher is re-seated just after the horizon it
  /// slid past (sc_deferred_), and every later publication comparison must
  /// honor that commitment or the explored history would be built from
  /// mutually contradictory total orders (e.g. store-buffering could reach
  /// the both-zero outcome C11 forbids by inverting two fences both ways).
  /// Call with mu_ held.
  [[nodiscard]] bool sc_before(std::uint64_t a, std::uint64_t b) const;

  /// Records that slot `h` (a seq_cst fence) served as some load's
  /// freshness horizon. A used horizon anchors S around it: publishers
  /// before it can no longer slide past it, because loads that already ran
  /// under that horizon skipped floors assuming the slot-order positions.
  /// Call with mu_ held.
  void sc_note_horizon(std::uint64_t h);

  /// S-position at which a store by thread `tid` at event `epoch` was
  /// published by that thread's earliest *later* seq_cst fence, or 0 if no
  /// such fence exists (yet). Implements the [atomics.order] fence-fence
  /// rule: a store sequenced before a seq_cst fence X must be visible to
  /// any load sequenced after a seq_cst fence (or seq_cst load) later than
  /// X in S. Call with mu_ held.
  [[nodiscard]] std::uint64_t sc_publish_time(int tid,
                                              std::uint32_t epoch) const {
    const auto& log = threads_[static_cast<std::size_t>(tid)].fence_log;
    const auto it = std::lower_bound(
        log.begin(), log.end(), epoch,
        [](const std::pair<std::uint64_t, std::uint32_t>& e,
           std::uint32_t ep) { return e.second < ep; });
    return it == log.end() ? 0 : it->first;
  }

  /// Advances thread `tid`'s event counter; returns the new epoch.
  std::uint32_t bump_epoch(int tid) {
    auto& st = threads_[static_cast<std::size_t>(tid)];
    st.clock.bump(tid);
    return st.clock.of(tid);
  }

  /// Picks a store index in [lo, hi] (hi = latest): latest with probability
  /// 1 - stale_rate/65536, otherwise uniform over the admissible window.
  std::size_t pick_index(int tid, std::size_t lo, std::size_t hi);

  /// C11 fence semantics for a bound thread (takes mu_ itself).
  void fence(int tid, std::memory_order order);

  // --- plain-access race checker -----------------------------------------
  void on_plain_read(int tid, const void* addr, Site site);
  void on_plain_write(int tid, const void* addr, Site site);
  /// Drops all tracking state (race history and value model) for cells in
  /// [base, base + bytes): the block is being returned to the allocator,
  /// whose internal synchronization hands it to the next owner with a real
  /// happens-before edge the model cannot otherwise see. Without this, a
  /// recycled heap address reports a false race between the previous
  /// owner's accesses and the next owner's first write.
  void on_plain_retire(const void* base, std::size_t bytes);

  // --- plain-access value model (verify::plain_load / plain_store) -------
  /// Race-checks like on_plain_read, then returns an admissible value for
  /// the cell: any recorded store not superseded by one the reader's clock
  /// knows (same floors as atomic loads, minus SC — plain cells are not in
  /// S). `fresh_bits` is the cell's live value, returned verbatim when the
  /// cell has no recorded history.
  std::uint64_t on_plain_read_value(int tid, const void* addr, Site site,
                                    std::uint64_t fresh_bits);
  /// Race-checks like on_plain_write, then appends {new_bits} to the cell's
  /// history. On first contact the pre-write live value `old_bits` seeds
  /// the history as an initial store visible to every thread.
  void on_plain_write_value(int tid, const void* addr, Site site,
                            std::uint64_t old_bits, std::uint64_t new_bits);

  /// The shadow verify::atomic of the plain cell at `addr`
  /// (verify::atomic_ref), null until first use. Caller holds mu_.
  std::shared_ptr<void>& shadow(const void* addr) { return shadows_[addr]; }

  // --- diagnostics -------------------------------------------------------
  /// Records a model violation (takes mu_ unless already held — use the
  /// _locked variant from instrumented code).
  void report(const std::string& message);
  void report_locked(const std::string& message);

  [[nodiscard]] bool ok() const;
  [[nodiscard]] std::vector<std::string> diagnostics() const;
  /// Multi-line report naming the seed so a failure replays.
  [[nodiscard]] std::string report_text() const;

 private:
  /// One recorded store to a value-modeled plain cell.
  struct PlainRec {
    std::uint64_t bits = 0;
    int tid = 0;
    std::uint32_t epoch = 0;  ///< writer's event counter (0 = initial seed)
  };

  struct PlainVar {
    int writer_tid = -1;
    std::uint32_t writer_epoch = 0;
    Site writer_site{};
    std::array<std::uint32_t, kMaxVerifyThreads> read_epoch{};
    std::array<Site, kMaxVerifyThreads> read_site{};
    // Value model (plain_load/plain_store cells only; empty for cells that
    // carry bare WASP_VERIFY_RD/WR annotations). Mirrors the atomic Model:
    // back() = latest in modification order, base = absolute index of
    // hist[0], last_read = per-thread coherence floors (absolute indices).
    std::vector<PlainRec> hist;
    std::uint64_t base = 0;
    std::array<std::uint64_t, kMaxVerifyThreads> last_read{};
  };

  /// One seq_cst event in the bounded exploration ring (positions are
  /// contiguous, so ring[i].pos == ring.front().pos + i).
  struct ScEvent {
    std::uint64_t pos = 0;
    int tid = 0;
    std::uint32_t epoch = 0;    ///< issuer's event counter at the event
    const void* addr = nullptr; ///< stored-to object; nullptr for a fence
    VectorClock clock;          ///< issuer's clock at the event
  };

  /// Shared race bookkeeping for the four on_plain_* entry points (mu_
  /// held). Returns the access epoch.
  std::uint32_t plain_read_check_locked(int tid, const void* addr,
                                        PlainVar& var, Site site);
  std::uint32_t plain_write_check_locked(int tid, const void* addr,
                                         PlainVar& var, Site site);

  Options options_;
  std::uint64_t generation_;
  mutable std::mutex mu_;
  std::vector<ThreadState> threads_;
  VectorClock sc_clock_;
  std::uint64_t sc_seq_ = 0;  ///< length of the SC total order S so far
  std::deque<ScEvent> sc_events_;  ///< recent S suffix (exploration only)
  /// Exploration commitments (all keyed by original slot; sessions are
  /// per-test and short-lived, so these are not pruned):
  /// slot -> re-seated position "just after sc_deferred_[slot].first, with
  /// tie-break sc_deferred_[slot].second" for publishers whose floor was
  /// dropped.
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>
      sc_deferred_;
  /// publisher slot -> smallest horizon whose floor was *applied* via the
  /// exploration coin; the publisher may never slide past it.
  std::unordered_map<std::uint64_t, std::uint64_t> sc_pinned_;
  /// fence slots already used as a load horizon (see sc_note_horizon).
  std::unordered_map<std::uint64_t, bool> sc_used_;
  std::uint64_t sc_defer_sub_ = 0;  ///< tie-break for same-base deferrals
  std::unordered_map<const void*, PlainVar> plain_;
  std::unordered_map<const void*, std::shared_ptr<void>> shadows_;
  std::vector<std::string> diagnostics_;
  std::size_t dropped_diagnostics_ = 0;
};

/// Binds the calling thread to `session` as logical thread `tid` for the
/// guard's lifetime. A null session is a no-op, so callers can thread an
/// optional session through unconditionally.
class ScopedBind {
 public:
  ScopedBind(Session* session, int tid);
  ~ScopedBind();

  ScopedBind(const ScopedBind&) = delete;
  ScopedBind& operator=(const ScopedBind&) = delete;

 private:
  Session* saved_session_;
  int saved_tid_;
};

namespace detail {
struct Binding {
  Session* session = nullptr;
  int tid = -1;
};
// constinit: statically initialized, so no TLS init-guard wrapper sits on
// the instrumentation hot path (its lazy-init store is also what UBSan would
// flag).
inline constinit thread_local Binding tls_binding{};
inline constinit std::atomic<Session*> g_session{nullptr};
inline constinit std::atomic<std::uint64_t> g_generation{0};
// The installed Scheduler (scheduler.hpp), type-erased so this header does
// not depend on it. Instrumented operations peek at it via schedule_point.
inline constinit std::atomic<void*> g_scheduler{nullptr};
}  // namespace detail

/// Out-of-line hop into scheduler.hpp (defined in context.cpp): hands the
/// execution token to the installed Scheduler's yield().
void scheduler_yield(int tid);

/// Preemption point. Every instrumented operation of a bound thread calls
/// this before touching the model, so an installed Scheduler (see
/// scheduler.hpp) can deterministically interleave threads at exactly the
/// events the memory model sees. Without a scheduler this is one relaxed
/// load.
inline void schedule_point(int tid) {
  if (detail::g_scheduler.load(std::memory_order_acquire) != nullptr)
    scheduler_yield(tid);
}

inline Session* Session::current() {
  return detail::g_session.load(std::memory_order_acquire);
}

inline Session* Session::bound(int& tid) {
  const detail::Binding& b = detail::tls_binding;
  if (b.session == nullptr ||
      b.session != detail::g_session.load(std::memory_order_acquire))
    return nullptr;
  tid = b.tid;
  return b.session;
}

/// Plain-access annotation entry points (used via WASP_VERIFY_RD/WR).
inline void plain_read(
    const void* addr,
    std::source_location loc = std::source_location::current()) {
  int tid;
  if (Session* s = Session::bound(tid)) {
    schedule_point(tid);
    s->on_plain_read(tid, addr, site_of(loc));
  }
}

inline void plain_write(
    const void* addr,
    std::source_location loc = std::source_location::current()) {
  int tid;
  if (Session* s = Session::bound(tid)) {
    schedule_point(tid);
    s->on_plain_write(tid, addr, site_of(loc));
  }
}

/// Allocator hand-off annotation (used via WASP_VERIFY_RETIRE): call
/// immediately before operator delete on a block whose cells carry
/// WASP_VERIFY_RD/WR annotations and whose storage may be recycled by a
/// subsequent operator new on another thread (e.g. drained RemoteBatch
/// blocks). See Session::on_plain_retire.
inline void plain_retire(const void* base, std::size_t bytes) {
  int tid;
  if (Session* s = Session::bound(tid)) {
    schedule_point(tid);
    s->on_plain_retire(base, bytes);
  }
}

}  // namespace wasp::verify
