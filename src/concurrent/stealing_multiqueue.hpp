// Stealing MultiQueue (SMQ) — the relaxed priority scheduler of Postnikova,
// Koval, Nadiradze & Alistarh (PPoPP'22), discussed in the paper's related
// work: each thread owns a *private* d-ary heap (no locks on the hot path)
// plus a small lock-protected *steal buffer* of its smallest extracted
// elements. A thread whose heap and buffer are empty steals a whole buffer
// batch from the better of two random victims.
//
// Included as an extension baseline: it brackets Wasp from the other side of
// the design space (priority-queue-shaped local storage + batched stealing,
// vs Wasp's bucket-shaped storage + priority-aware stealing).
//
// Memory-order map (docs/CONCURRENCY.md): the only load-bearing
// synchronization in this structure is `buffer_lock` — every cross-thread
// access to a steal buffer happens under it, and every unlocked read of
// `buffer_min` is advisory (victim sampling, refill gating) and re-validated
// under the lock before anything is taken. The mutation tester proved the
// previous acquire/release/acq_rel annotations on those advisory sites
// unnecessary (no harness could kill their weakening, and the
// re-validation argument shows why), so they are relaxed on purpose; do
// not "fix" them back without a killing schedule.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "concurrent/dary_heap.hpp"
#include "concurrent/spinlock.hpp"
#include "support/padded.hpp"
#include "support/random.hpp"
#include "support/types.hpp"
#include "verify/checked_atomic.hpp"

namespace wasp {

class StealingMultiQueue {
 public:
  struct Config {
    int threads = 1;
    int steal_batch = 8;  ///< steal-buffer capacity (b)
    std::uint64_t seed = 1;
  };

  explicit StealingMultiQueue(const Config& config)
      : config_(config), per_thread_(static_cast<std::size_t>(config.threads)) {
    for (int t = 0; t < config.threads; ++t) {
      auto& me = per_thread_[static_cast<std::size_t>(t)].value;
      me.rng = Xoshiro256(hash_mix(config.seed + static_cast<std::uint64_t>(t)));
      me.buffer.reserve(static_cast<std::size_t>(config.steal_batch));
    }
  }

  StealingMultiQueue(const StealingMultiQueue&) = delete;
  StealingMultiQueue& operator=(const StealingMultiQueue&) = delete;

  /// Inserts into the caller's private heap (and tops up its steal buffer —
  /// SMQ refills buffers on push/top occasions so there is always stealable
  /// work while the owner is busy).
  void push(int tid, Distance key, VertexId value) {
    auto& me = per_thread_[static_cast<std::size_t>(tid)].value;
    me.heap.push(key, value);
    maybe_refill_buffer(me);
  }

  /// Pops the smaller of (own heap top, own buffer min); steals a batch from
  /// two-choice victims when both are empty. Returns false when nothing was
  /// found anywhere this attempt.
  bool try_pop(int tid, Distance& key, VertexId& value) {
    auto& me = per_thread_[static_cast<std::size_t>(tid)].value;
    // Fast path: private heap vs own buffer front. Own cell: never stale.
    const Distance buffer_min = me.buffer_min.load(std::memory_order_relaxed);
    if (!me.heap.empty() && me.heap.top().key <= buffer_min) {
      const auto e = me.heap.pop();
      key = e.key;
      value = e.value;
      maybe_refill_buffer(me);
      return true;
    }
    if (buffer_min != kInfDist && pop_own_buffer(me, key, value))
      return true;
    if (!me.heap.empty()) {
      const auto e = me.heap.pop();
      key = e.key;
      value = e.value;
      return true;
    }
    return steal_batch(tid, me, key, value);
  }

 private:
  struct Entry {
    Distance key;
    VertexId value;
  };

  struct PerThread {
    Xoshiro256 rng{1};
    DaryHeap<Distance, VertexId, 4> heap;  // private: owner-only
    SpinLock buffer_lock;
    /// Ascending; thieves take the lot. Every access is under buffer_lock
    /// (TSA-enforced); buffer_min stays unguarded because its unlocked
    /// reads are the advisory sampling described above.
    std::vector<Entry> buffer WASP_GUARDED_BY(buffer_lock);
    verify::atomic<Distance> buffer_min{kInfDist};
  };

  /// Moves up to `steal_batch` smallest heap elements into the (empty)
  /// steal buffer so thieves have something to take.
  void maybe_refill_buffer(PerThread& me) {
    // Advisory gate: a stale non-inf value skips a refill that the next
    // push/pop occasion retries; a stale inf is re-validated below.
    if (me.buffer_min.load(std::memory_order_relaxed) != kInfDist) return;
    if (me.heap.empty()) return;
    SpinGuard guard(me.buffer_lock);
    if (!me.buffer.empty()) return;  // a thief raced us and left leftovers?
    WASP_VERIFY_WR(&me.buffer);
    const int batch = config_.steal_batch;
    for (int i = 0; i < batch && !me.heap.empty(); ++i) {
      const auto e = me.heap.pop();
      me.buffer.push_back(Entry{e.key, e.value});
    }
    // The buffer contents are published by the unlock (release); this hint
    // is only read unlocked for victim sampling, so relaxed suffices.
    me.buffer_min.store(me.buffer.front().key, std::memory_order_relaxed);
  }

  bool pop_own_buffer(PerThread& me, Distance& key, VertexId& value) {
    SpinGuard guard(me.buffer_lock);
    if (me.buffer.empty()) return false;
    WASP_VERIFY_WR(&me.buffer);
    key = me.buffer.front().key;
    value = me.buffer.front().value;
    me.buffer.erase(me.buffer.begin());
    // Relaxed: buffer_min is a sampling hint; the buffer itself is guarded
    // by buffer_lock, whose unlock publishes the new front.
    me.buffer_min.store(me.buffer.empty() ? kInfDist : me.buffer.front().key,
                        std::memory_order_relaxed);
    return true;
  }

  /// Two-choice batch steal: the victim with the smaller buffer_min loses
  /// its entire buffer to us; we consume one element and keep the rest in
  /// our own heap.
  bool steal_batch(int tid, PerThread& me, Distance& key, VertexId& value) {
    const int p = config_.threads;
    if (p <= 1) return false;
    if (verify::inject(verify::Fault::kStealFail)) return false;
    int a = static_cast<int>(me.rng.next_below(static_cast<std::uint64_t>(p - 1)));
    if (a >= tid) ++a;
    int b = static_cast<int>(me.rng.next_below(static_cast<std::uint64_t>(p - 1)));
    if (b >= tid) ++b;
    // Victim sampling is advisory (stale hints cost an extra attempt, never
    // correctness): the lock below re-validates before anything is taken.
    const Distance ka =
        per_thread_[static_cast<std::size_t>(a)].value.buffer_min.load(
            std::memory_order_relaxed);
    const Distance kb =
        per_thread_[static_cast<std::size_t>(b)].value.buffer_min.load(
            std::memory_order_relaxed);
    if (ka == kInfDist && kb == kInfDist) return false;
    PerThread& victim = per_thread_[static_cast<std::size_t>(ka <= kb ? a : b)].value;

    std::vector<Entry> batch;
    {
      SpinGuard guard(victim.buffer_lock);
      if (victim.buffer.empty()) return false;
      WASP_VERIFY_WR(&victim.buffer);
      batch.swap(victim.buffer);
      // Relaxed hint update; the enclosing buffer_lock orders the swap.
      victim.buffer_min.store(kInfDist, std::memory_order_relaxed);
    }
    key = batch.front().key;
    value = batch.front().value;
    for (std::size_t i = 1; i < batch.size(); ++i)
      me.heap.push(batch[i].key, batch[i].value);
    return true;
  }

  Config config_;
  std::vector<CachePadded<PerThread>> per_thread_;
};

}  // namespace wasp
