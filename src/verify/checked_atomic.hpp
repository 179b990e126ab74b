// checked_atomic: the instrumentation shim between the concurrent layer and
// std::atomic.
//
// With WASP_VERIFY=OFF (the default), wasp::verify::atomic<T> is a
// zero-cost passthrough to std::atomic<T>, and the annotation macros and
// fault points fold to no-ops, so the benchmarking configuration compiles
// the exact bits the perf numbers come from.
//
// With WASP_VERIFY=ON and a verify::Session installed on the calling
// thread, every operation runs the happens-before model of context.hpp:
//
//  * stores append to a bounded per-object history carrying the release
//    clock (or the pending release-fence clock for relaxed stores);
//  * loads may return any admissible stale store — one not superseded by a
//    store the loading thread's vector clock already knows — chosen by a
//    seeded PRNG, and join the release clock on acquire;
//  * RMWs read the latest store (C11 atomicity) and continue release
//    sequences, so an acquire load reading a relaxed fetch_add still
//    synchronizes with the release store heading the sequence;
//  * seq_cst operations additionally synchronize through the session's SC
//    clock (a sound strengthening of C11's S order), and the model tracks
//    the total order S explicitly: seq_cst stores are stamped with their
//    S-position, seq_cst loads may not read past the newest S-store, and a
//    load after a seq_cst fence may not read past the newest S-store that
//    precedes the fence in S. This makes seq_cst -> acq_rel weakenings on
//    store/RMW sites observable as value-level staleness (the deque's
//    last-element CAS mutants CLD-86f63b/CLD-c4227a).
//    seq_cst *fences* get pure C11 S-membership semantics (no sc_clock
//    join): they floor values but never create happens-before by
//    themselves. With Session::Options::sc_reorder_window > 0 the floors
//    themselves are searched over admissible alternative choices of S
//    (see context.hpp).
//
// Plain (non-atomic) cells go through two tiers of instrumentation: the
// WASP_VERIFY_RD/WR macros race-check an access, and the
// plain_load/plain_store wrappers below additionally value-model the cell —
// a read missing its happens-before edge can return an admissible stale
// value from the cell's recorded history, so a broken publication protocol
// corrupts data in the simulation instead of only flagging a race.
//
// Every model store writes through to the underlying std::atomic, so
// unbound threads (and code running after the session ends) always see the
// latest value.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <source_location>
#include <type_traits>
#include <utility>

#if defined(WASP_VERIFY_ENABLED) && WASP_VERIFY_ENABLED
#include <algorithm>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "verify/context.hpp"
#include "verify/vector_clock.hpp"
#endif

namespace wasp::verify {

// TSan does not model fences and GCC warns (fatally, under WASP_WERROR)
// about every atomic_thread_fence in a -fsanitize=thread TU. The fences
// here order same-variable accesses whose surrounding seq_cst ops already
// give TSan a visible edge (see docs/CONCURRENCY.md, the deque's seq_cst
// fence pair CLD-5f7729/CLD-18faf2), so the
// known TSan blind spot is accepted and the warning silenced at this one
// choke point rather than at every call site.
inline void raw_thread_fence(std::memory_order order) noexcept {
#if defined(__GNUC__) && !defined(__clang__) && defined(__SANITIZE_THREAD__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wtsan"
  std::atomic_thread_fence(order);
#pragma GCC diagnostic pop
#else
  std::atomic_thread_fence(order);
#endif
}

/// The faults an installed Scheduler injects as seeded actions at the fault
/// points (inject() below; Scheduler::fault in scheduler.hpp). Each is an
/// outcome the hardware allows but rarely produces.
enum class Fault : std::uint8_t {
  kStealFail,       ///< a Chase-Lev deque steal attempt loses its race
  kChunkAllocFail,  ///< the chunk pool treats its freelist as exhausted
  kSpuriousWakeup,  ///< Wasp's termination scan distrusts a passing verdict,
                    ///< or a parking worker returns before any wake
};
inline constexpr std::size_t kNumFaults = 3;

#if defined(WASP_VERIFY_ENABLED) && WASP_VERIFY_ENABLED

/// Out-of-line hop into scheduler.hpp (defined in context.cpp): the
/// installed Scheduler's fault() decision for `f`.
bool scheduler_fault(int tid, Fault f);

/// Fault point: true when the installed Scheduler fires `f` for the calling
/// bound thread. Without a scheduler this is one atomic load.
inline bool inject(Fault f) {
  int tid;
  return detail::g_scheduler.load(std::memory_order_acquire) != nullptr &&
         Session::bound(tid) != nullptr && scheduler_fault(tid, f);
}

template <typename T>
class atomic {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  atomic() noexcept : impl_{} {}
  constexpr atomic(T v) noexcept : impl_(v) {}  // NOLINT(google-explicit-constructor)
  ~atomic() { delete model_.load(std::memory_order_acquire); }

  atomic(const atomic&) = delete;
  atomic& operator=(const atomic&) = delete;

  T load(std::memory_order order,
         std::source_location loc = std::source_location::current()) const {
    int tid;
    Session* s = Session::bound(tid);
    if (s == nullptr) return impl_.load(order);
    schedule_point(tid);
    std::lock_guard<std::mutex> guard(s->mu());
    Model& m = model(s);
    auto& st = s->thread_state(tid);
    if (order == std::memory_order_seq_cst) st.clock.join(s->sc_clock());
    const std::size_t idx = admissible_pick(s, m, st, tid, order);
    const Store& chosen = m.hist[idx];
    m.last_read[static_cast<std::size_t>(tid)] = m.base + idx;
    s->bump_epoch(tid);
    if (chosen.has_rel) {
      if (order == std::memory_order_relaxed)
        st.pending_acquire.join(chosen.rel);
      else
        st.clock.join(chosen.rel);  // acquire / consume / seq_cst
    }
    if (order == std::memory_order_seq_cst) s->sc_clock().join(st.clock);
    (void)loc;
    return chosen.value;
  }

  void store(T v, std::memory_order order,
             std::source_location loc = std::source_location::current()) {
    int tid;
    Session* s = Session::bound(tid);
    if (s == nullptr) {
      impl_.store(v, order);
      return;
    }
    schedule_point(tid);
    std::lock_guard<std::mutex> guard(s->mu());
    Model& m = model(s);
    auto& st = s->thread_state(tid);
    if (order == std::memory_order_seq_cst) st.clock.join(s->sc_clock());
    append_store(s, m, st, tid, v, is_release(order), /*rmw=*/false,
                 /*sc=*/order == std::memory_order_seq_cst);
    if (order == std::memory_order_seq_cst) s->sc_clock().join(st.clock);
    (void)loc;
  }

  T exchange(T v, std::memory_order order,
             std::source_location loc = std::source_location::current()) {
    return rmw([v](T) { return v; }, order, loc).first;
  }

  bool compare_exchange_strong(
      T& expected, T desired, std::memory_order success,
      std::memory_order failure,
      std::source_location loc = std::source_location::current()) {
    int tid;
    Session* s = Session::bound(tid);
    if (s == nullptr)
      return impl_.compare_exchange_strong(expected, desired, success, failure);
    schedule_point(tid);
    std::lock_guard<std::mutex> guard(s->mu());
    Model& m = model(s);
    auto& st = s->thread_state(tid);
    const T latest = m.hist.back().value;
    if (!(latest == expected)) {
      // Failed CAS: a load of the latest value with the failure order
      // (reading latest, not stale, is a sound strengthening).
      if (failure == std::memory_order_seq_cst) st.clock.join(s->sc_clock());
      sync_read(s, m, st, tid, m.hist.size() - 1, failure);
      if (failure == std::memory_order_seq_cst) s->sc_clock().join(st.clock);
      expected = latest;
      return false;
    }
    if (success == std::memory_order_seq_cst) st.clock.join(s->sc_clock());
    sync_read(s, m, st, tid, m.hist.size() - 1, success);
    append_store(s, m, st, tid, desired, is_release(success), /*rmw=*/true,
                 /*sc=*/success == std::memory_order_seq_cst);
    if (success == std::memory_order_seq_cst) s->sc_clock().join(st.clock);
    (void)loc;
    return true;
  }

  bool compare_exchange_weak(
      T& expected, T desired, std::memory_order success,
      std::memory_order failure,
      std::source_location loc = std::source_location::current()) {
    // The model has no spurious failure; weak == strong here.
    return compare_exchange_strong(expected, desired, success, failure, loc);
  }

  template <typename U = T, typename = std::enable_if_t<std::is_integral_v<U>>>
  T fetch_add(T delta, std::memory_order order,
              std::source_location loc = std::source_location::current()) {
    return rmw([delta](T old) { return static_cast<T>(old + delta); }, order,
               loc)
        .first;
  }

  template <typename U = T, typename = std::enable_if_t<std::is_integral_v<U>>>
  T fetch_sub(T delta, std::memory_order order,
              std::source_location loc = std::source_location::current()) {
    return rmw([delta](T old) { return static_cast<T>(old - delta); }, order,
               loc)
        .first;
  }

  /// std::atomic::wait for the model. An unbound thread blocks in the real
  /// wait. A bound thread must never block while it holds the cooperative
  /// scheduler's token, so it spins through instrumented loads (each one a
  /// schedule point that can hand the token to the thread that will wake
  /// it) until the value differs from `old`. After kWaitSpinBound unchanged
  /// loads it reports a stuck wait (a lost wake-up in the protocol under
  /// test) and returns, so the run still finishes and the harness fails
  /// with a replayable seed. Callers must treat any return as possibly
  /// spurious.
  void wait(T old, std::memory_order order,
            std::source_location loc = std::source_location::current()) const {
    int tid;
    Session* s = Session::bound(tid);
    if (s == nullptr) {
      impl_.wait(old, order);
      return;
    }
    for (std::uint32_t spin = 0; spin < kWaitSpinBound; ++spin)
      if (!(load(order, loc) == old)) return;
    s->report("stuck wait at " + site_str(site_of(loc)) + " (thread " +
              std::to_string(tid) + "): value unchanged after " +
              std::to_string(kWaitSpinBound) +
              " loads, no wake-up ever arrived");
  }

  /// Wake-ups go to the real atomic: a bound waiter re-reads the model on
  /// its next spin anyway, and an unbound one is blocked in impl_.wait().
  void notify_one() { impl_.notify_one(); }
  void notify_all() { impl_.notify_all(); }

 private:
  /// Loads a bound wait() spends before it declares itself stuck. Legal
  /// waits in the harnesses end within a few thousand schedule points.
  static constexpr std::uint32_t kWaitSpinBound = std::uint32_t{1} << 18;

  struct Store {
    T value{};
    VectorClock rel;     ///< release-sequence clock carried by this store
    bool has_rel = false;
    int tid = 0;
    std::uint32_t epoch = 0;  ///< writer's event counter at store time
    std::uint64_t sc_time = 0;  ///< position in S; 0 = not a seq_cst store
  };

  struct Model {
    std::uint64_t gen = 0;
    std::vector<Store> hist;   ///< back() = latest in modification order
    std::uint64_t base = 0;    ///< absolute index of hist[0]
    std::array<std::uint64_t, kMaxVerifyThreads> last_read{};
    // C11/C++11 release-sequence head (pre-P0982, the semantics this model
    // targets): a release store heads a sequence that continues through
    // *same-thread* stores and any-thread RMWs, and is broken by another
    // thread's plain store. rel_head accumulates the head clocks of the
    // current unbroken sequence so a continuing store can carry them.
    VectorClock rel_head;
    int rel_head_tid = -1;      ///< thread owning the current sequence
    bool has_rel_head = false;
  };

  static bool is_release(std::memory_order o) {
    return o == std::memory_order_release || o == std::memory_order_acq_rel ||
           o == std::memory_order_seq_cst;
  }

  /// Lazily (re)initializes the model for the current session generation,
  /// seeding the history with the underlying value as an initial store
  /// visible to every thread. Caller holds the session lock.
  /// A shadow (atomic_ref) restarts the same way when its cell no longer
  /// holds the newest store: the cell was written outside the model.
  Model& model(Session* s) const {
    Model* m = model_.load(std::memory_order_relaxed);
    if (m == nullptr) {
      m = new Model();
      model_.store(m, std::memory_order_release);
    }
    if (m->gen != s->generation() ||
        (mirror_ != nullptr && !(mirror().load(std::memory_order_relaxed) ==
                                 m->hist.back().value))) {
      if (mirror_ != nullptr)
        impl_.store(mirror().load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
      m->gen = s->generation();
      m->hist.clear();
      m->hist.push_back(Store{impl_.load(std::memory_order_relaxed),
                              VectorClock{}, false, 0, 0});
      m->base = 0;
      m->last_read.fill(0);
      m->has_rel_head = false;
      m->rel_head_tid = -1;
    }
    return *m;
  }

  /// Picks an admissible store index for a load by `tid`: one at least as
  /// new as (a) the newest store the thread's clock knows, (b) anything it
  /// read from this object before (coherence), and (c) the SC-order floor.
  ///
  /// The SC floor implements the [atomics.order] value rules over the
  /// model's total order S (the execution order of seq_cst operations
  /// under the session lock — a valid choice of S, so restricting reads by
  /// it never invents behavior). Each store has an S "publication time":
  /// its own slot if it is a seq_cst store, else the slot of the writer's
  /// earliest later seq_cst fence (sc_publish_time), else unpublished. A
  /// load may not read past the newest store published before the reader's
  /// horizon: the position of its last seq_cst fence, or all of S so far
  /// for a seq_cst load. Stores trimmed out of the history window only
  /// ever tighten these floors, so losing them is sound.
  std::size_t admissible_pick(Session* s, Model& m,
                              typename Session::ThreadState& st, int tid,
                              std::memory_order order) const {
    const std::size_t n = m.hist.size();
    std::uint64_t lo_abs = m.last_read[static_cast<std::size_t>(tid)];
    for (std::size_t i = n; i-- > 0;) {
      const Store& sto = m.hist[i];
      if (st.clock.knows(sto.tid, sto.epoch) || sto.epoch == 0) {
        lo_abs = std::max(lo_abs, m.base + i);
        break;
      }
    }
    const std::uint64_t horizon = order == std::memory_order_seq_cst
                                      ? ~std::uint64_t{0}
                                      : st.sc_fence_time;
    if (horizon != 0) {
      // Anchor the horizon in S: this load's floor-skips assume the
      // slot-order position of its fence, so exploration may no longer
      // slide earlier publishers past it (see Session::sc_note_horizon).
      if (horizon != ~std::uint64_t{0}) s->sc_note_horizon(horizon);
      for (std::size_t i = n; i-- > 0;) {
        const Store& sto = m.hist[i];
        std::uint64_t published = sto.sc_time;
        if (published == 0 && sto.epoch != 0)
          published = s->sc_publish_time(sto.tid, sto.epoch);
        if (published != 0 && s->sc_before(published, horizon)) {
          // SC exploration (Options::sc_reorder_window): a floor may be
          // dropped when some admissible S slides this publisher past the
          // reader's horizon — an older publisher can still floor, so keep
          // scanning instead of breaking.
          if (!s->sc_floor_is_firm(tid, static_cast<const void*>(this),
                                   published, horizon))
            continue;
          lo_abs = std::max(lo_abs, m.base + i);
          break;
        }
      }
    }
    const std::size_t lo = lo_abs > m.base
                               ? static_cast<std::size_t>(lo_abs - m.base)
                               : 0;
    return s->pick_index(tid, lo, n - 1);
  }

  /// Acquire-side bookkeeping for reading store `idx` with `order`.
  void sync_read(Session* s, Model& m, typename Session::ThreadState& st,
                 int tid, std::size_t idx, std::memory_order order) {
    const Store& sto = m.hist[idx];
    m.last_read[static_cast<std::size_t>(tid)] = m.base + idx;
    s->bump_epoch(tid);
    if (sto.has_rel) {
      const bool acq = order == std::memory_order_acquire ||
                       order == std::memory_order_consume ||
                       order == std::memory_order_acq_rel ||
                       order == std::memory_order_seq_cst;
      if (acq)
        st.clock.join(sto.rel);
      else
        st.pending_acquire.join(sto.rel);
    }
  }

  /// Appends a store with the correct release-clock payload and trims the
  /// history window. RMW stores continue the predecessor's release
  /// sequence. Seq_cst stores take a slot in S so SC-order floors apply.
  /// Writes through to the underlying atomic.
  void append_store(Session* s, Model& m, typename Session::ThreadState& st,
                    int tid, T v, bool release, bool rmw, bool sc) {
    const std::uint32_t epoch = s->bump_epoch(tid);
    Store sto{v, VectorClock{}, false, tid, epoch};
    if (sc)
      sto.sc_time = s->take_sc_slot(tid, static_cast<const void*>(this));
    if (release) {
      sto.rel = st.clock;
      sto.has_rel = true;
      // Heads a release sequence (C++11 rules; same-thread clocks are
      // monotone, so overwriting ⊇ joining the previous same-thread head).
      m.rel_head = st.clock;
      m.rel_head_tid = tid;
      m.has_rel_head = true;
    } else if (st.has_pending_release) {
      sto.rel = st.pending_release;
      sto.has_rel = true;
    }
    if (rmw && m.hist.back().has_rel) {
      sto.rel.join(m.hist.back().rel);  // release-sequence continuation
      sto.has_rel = true;
    }
    if (!release && !rmw) {
      if (m.has_rel_head && m.rel_head_tid == tid) {
        // C++11 [intro.races]: a store by the sequence's own thread
        // continues it — readers of this store synchronize with the head.
        sto.rel.join(m.rel_head);
        sto.has_rel = true;
      } else if (m.rel_head_tid != tid) {
        m.has_rel_head = false;  // another thread's plain store breaks it
      }
    }
    m.hist.push_back(sto);
    m.last_read[static_cast<std::size_t>(tid)] = m.base + m.hist.size() - 1;
    const auto cap =
        static_cast<std::size_t>(s->options().history_window);
    if (m.hist.size() > cap) {
      m.hist.erase(m.hist.begin());
      ++m.base;
    }
    impl_.store(v, std::memory_order_seq_cst);  // write-through
    if (mirror_ != nullptr) mirror().store(v, std::memory_order_seq_cst);
  }

  template <typename F>
  std::pair<T, bool> rmw(F&& f, std::memory_order order,
                         std::source_location loc) {
    int tid;
    Session* s = Session::bound(tid);
    if (s == nullptr) {
      // Passthrough RMW loop over the underlying atomic.
      T old = impl_.load(std::memory_order_relaxed);
      while (!impl_.compare_exchange_weak(old, f(old), order,
                                          std::memory_order_relaxed)) {
      }
      return {old, true};
    }
    schedule_point(tid);
    std::lock_guard<std::mutex> guard(s->mu());
    Model& m = model(s);
    auto& st = s->thread_state(tid);
    if (order == std::memory_order_seq_cst) st.clock.join(s->sc_clock());
    const T old = m.hist.back().value;  // RMWs read latest (C11 atomicity)
    sync_read(s, m, st, tid, m.hist.size() - 1, order);
    append_store(s, m, st, tid, f(old), is_release(order), /*rmw=*/true,
                 /*sc=*/order == std::memory_order_seq_cst);
    if (order == std::memory_order_seq_cst) s->sc_clock().join(st.clock);
    (void)loc;
    return {old, true};
  }

  template <typename>
  friend class atomic_ref;
  /// The plain cell a shadow writes through to (atomic_ref); null for an
  /// ordinary atomic.
  [[nodiscard]] std::atomic_ref<T> mirror() const {
    return std::atomic_ref<T>(*mirror_);
  }

  mutable std::atomic<T> impl_;
  mutable std::atomic<Model*> model_{nullptr};
  T* mirror_ = nullptr;
};

/// std::atomic_ref for the model, with the operations AtomicDistances uses.
/// A bound thread's access runs on a shadow atomic<T> that the session keeps
/// per cell address (Session::shadow) and that writes every store through
/// to the cell. A cell written outside the model (a plain fill or copy that
/// the team's fork and join order) no longer holds the shadow's newest
/// store, so its history restarts from the live value. An unbound access is
/// a std::atomic_ref access. A cell keeps one T for a session.
template <typename T>
class atomic_ref {
 public:
  static constexpr bool is_always_lock_free =
      std::atomic_ref<T>::is_always_lock_free;
  static constexpr std::size_t required_alignment =
      std::atomic_ref<T>::required_alignment;

  explicit atomic_ref(T& cell) noexcept : cell_(&cell) {}

  T load(std::memory_order order) const {
    return on_cell([&](auto& a) { return a.load(order); });
  }
  void store(T v, std::memory_order order) const {
    on_cell([&](auto& a) { a.store(v, order); });
  }
  bool compare_exchange_weak(T& expected, T desired,
                             std::memory_order success,
                             std::memory_order failure) const {
    return on_cell([&](auto& a) {
      return a.compare_exchange_weak(expected, desired, success, failure);
    });
  }

 private:
  /// Runs `op` on the cell's shadow for a bound thread, else on the cell.
  template <typename Op>
  decltype(auto) on_cell(Op&& op) const {
    int tid;
    Session* s = Session::bound(tid);
    if (s == nullptr) {
      std::atomic_ref<T> live(*cell_);
      return op(live);
    }
    std::unique_lock<std::mutex> lock(s->mu());
    std::shared_ptr<void>& slot = s->shadow(cell_);
    if (slot == nullptr) {
      auto made = std::make_shared<atomic<T>>(
          std::atomic_ref<T>(*cell_).load(std::memory_order_relaxed));
      made->mirror_ = cell_;
      slot = std::move(made);
    }
    auto* const shadow = static_cast<atomic<T>*>(slot.get());
    lock.unlock();
    return op(*shadow);  // takes the session lock itself
  }

  T* cell_;
};

/// Instrumented replacement for std::atomic_thread_fence.
inline void thread_fence(
    std::memory_order order,
    std::source_location loc = std::source_location::current()) {
  int tid;
  if (Session* s = Session::bound(tid)) {
    schedule_point(tid);
    s->fence(tid, order);
    (void)loc;
    return;
  }
  raw_thread_fence(order);
}

/// Value-modeled read of a plain (non-atomic) cell: race-checked like
/// WASP_VERIFY_RD, and the returned value may be any admissible stale
/// recorded store when the reader lacks the happens-before edge (see
/// Session::on_plain_read_value). Unbound threads read the live value.
template <typename T>
[[nodiscard]] T plain_load(
    const T& cell, std::source_location loc = std::source_location::current()) {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8,
                "plain_load models word-sized trivially copyable cells");
  int tid;
  Session* s = Session::bound(tid);
  if (s == nullptr) return cell;
  schedule_point(tid);
  std::uint64_t fresh = 0;
  std::memcpy(&fresh, &cell, sizeof(T));
  const std::uint64_t bits = s->on_plain_read_value(
      tid, static_cast<const void*>(&cell), site_of(loc), fresh);
  T out{};
  std::memcpy(&out, &bits, sizeof(T));
  return out;
}

/// Value-modeled write of a plain cell: race-checked like WASP_VERIFY_WR,
/// recorded in the cell's store history, and written through.
template <typename T>
void plain_store(T& cell, T v,
                 std::source_location loc = std::source_location::current()) {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8,
                "plain_store models word-sized trivially copyable cells");
  int tid;
  if (Session* s = Session::bound(tid)) {
    schedule_point(tid);
    std::uint64_t old_bits = 0;
    std::uint64_t new_bits = 0;
    std::memcpy(&old_bits, &cell, sizeof(T));
    std::memcpy(&new_bits, &v, sizeof(T));
    s->on_plain_write_value(tid, static_cast<const void*>(&cell),
                            site_of(loc), old_bits, new_bits);
  }
  cell = v;  // write-through: unbound readers always see the live value
}

#else  // !WASP_VERIFY_ENABLED ------------------------------------------------

/// No scheduler, no faults: every fault point folds away.
constexpr bool inject(Fault) { return false; }

/// Zero-cost passthrough: identical layout and codegen to std::atomic<T>.
template <typename T>
class atomic {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  atomic() noexcept : impl_{} {}
  constexpr atomic(T v) noexcept : impl_(v) {}  // NOLINT(google-explicit-constructor)

  atomic(const atomic&) = delete;
  atomic& operator=(const atomic&) = delete;

  T load(std::memory_order order) const { return impl_.load(order); }
  void store(T v, std::memory_order order) { impl_.store(v, order); }
  T exchange(T v, std::memory_order order) { return impl_.exchange(v, order); }
  bool compare_exchange_strong(T& expected, T desired,
                               std::memory_order success,
                               std::memory_order failure) {
    return impl_.compare_exchange_strong(expected, desired, success, failure);
  }
  bool compare_exchange_weak(T& expected, T desired, std::memory_order success,
                             std::memory_order failure) {
    return impl_.compare_exchange_weak(expected, desired, success, failure);
  }
  template <typename U = T, typename = std::enable_if_t<std::is_integral_v<U>>>
  T fetch_add(T delta, std::memory_order order) {
    return impl_.fetch_add(delta, order);
  }
  template <typename U = T, typename = std::enable_if_t<std::is_integral_v<U>>>
  T fetch_sub(T delta, std::memory_order order) {
    return impl_.fetch_sub(delta, order);
  }
  void wait(T old, std::memory_order order) const { impl_.wait(old, order); }
  void notify_one() { impl_.notify_one(); }
  void notify_all() { impl_.notify_all(); }

 private:
  std::atomic<T> impl_;
};

/// Zero-cost passthrough: std::atomic_ref<T> itself.
template <typename T>
using atomic_ref = std::atomic_ref<T>;

inline void thread_fence(std::memory_order order) {
  raw_thread_fence(order);
}

/// Zero-cost passthroughs for the plain-cell value-model entry points.
template <typename T>
[[nodiscard]] T plain_load(const T& cell) {
  return cell;
}

template <typename T>
void plain_store(T& cell, T v) {
  cell = v;
}

#endif  // WASP_VERIFY_ENABLED

}  // namespace wasp::verify

// Plain-access race-checker annotations. Mark the non-atomic shared cells
// whose publication the surrounding protocol is supposed to order; with
// verification off they disappear entirely.
#if defined(WASP_VERIFY_ENABLED) && WASP_VERIFY_ENABLED
#define WASP_VERIFY_RD(addr) \
  (::wasp::verify::plain_read(static_cast<const void*>(addr)))
#define WASP_VERIFY_WR(addr) \
  (::wasp::verify::plain_write(static_cast<const void*>(addr)))
#define WASP_VERIFY_RETIRE(base, bytes) \
  (::wasp::verify::plain_retire(static_cast<const void*>(base), (bytes)))
#else
#define WASP_VERIFY_RD(addr) ((void)0)
#define WASP_VERIFY_WR(addr) ((void)0)
#define WASP_VERIFY_RETIRE(base, bytes) ((void)0)
#endif
