// Lock-free growable Chase-Lev work-stealing deque (Chase & Lev, SPAA'05),
// with the C11 memory-order discipline of Lê, Pop, Cohen & Zappa Nardelli
// (PPoPP'13).
//
// This is Wasp's *current bucket* (paper §4.3): the owner pushes and pops
// chunk pointers at the bottom; thieves steal from the top. Contention only
// arises on the last element and is resolved with CAS. Growth is triggered
// by the owner and never blocks concurrent steals — retired ring buffers are
// kept alive until the deque is destroyed, so a thief holding a stale buffer
// pointer still reads valid memory (its CAS on `top` then fails or wins
// consistently).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "support/types.hpp"
#include "verify/checked_atomic.hpp"

namespace wasp {

/// Work-stealing deque of pointers. T must be a pointer type.
template <typename T>
class ChaseLevDeque {
  static_assert(std::is_pointer_v<T>, "ChaseLevDeque stores raw pointers");

 public:
  explicit ChaseLevDeque(std::uint64_t initial_capacity = 64) {
    auto* rb = new Ring(round_up_pow2(initial_capacity));
    // Relaxed: construction precedes any sharing; whatever hands the deque
    // to other threads provides the publication edge.
    buffer_.store(rb, std::memory_order_relaxed);
    retired_.emplace_back(rb);
  }

  ChaseLevDeque(const ChaseLevDeque&) = delete;
  ChaseLevDeque& operator=(const ChaseLevDeque&) = delete;
  ~ChaseLevDeque() = default;

  /// Owner-only: pushes an element at the bottom. Grows the ring if full;
  /// growth copies live elements and does not invalidate in-flight steals.
  void push_bottom(T item) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Ring* rb = buffer_.load(std::memory_order_relaxed);
    if (b - t >= static_cast<std::int64_t>(rb->capacity)) {
      rb = grow(rb, t, b);
    }
    rb->put(b, item);
    // Release store (not fence + relaxed store as in Lê et al.): equivalent
    // ordering — the slot write happens-before any thief that observes the
    // new bottom — but visible to TSan, which does not model fences. This is
    // the edge that orders the *payload's* non-atomic fields (e.g. a chunk's
    // intrusive `next`) between owner and thief.
    bottom_.store(b + 1, std::memory_order_release);
  }

  /// Owner-only: pops from the bottom (LIFO). Returns nullptr when empty.
  T pop_bottom() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Ring* rb = buffer_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_relaxed);
    verify::thread_fence(std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_relaxed);
    if (t > b) {
      // Deque was already empty; restore bottom.
      bottom_.store(b + 1, std::memory_order_relaxed);
      return nullptr;
    }
    T item = rb->get(b);
    if (t == b) {
      // Last element: race with thieves via CAS on top.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        item = nullptr;  // a thief got it
      }
      // Relaxed: restoring bottom after the last-element race publishes
      // nothing — the element's fate was already decided by the CAS on top.
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return item;
  }

  /// Thief: steals from the top (FIFO). Returns nullptr when empty or when
  /// it loses a race (callers treat both as "nothing stolen").
  T steal() {
    if (verify::inject(verify::Fault::kStealFail)) return nullptr;
    std::int64_t t = top_.load(std::memory_order_acquire);
    verify::thread_fence(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    if (t >= b) return nullptr;
    Ring* rb = buffer_.load(std::memory_order_consume);
    T item = rb->get(t);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return nullptr;
    }
    return item;
  }

  /// Racy size estimate (monitoring / tests only). Relaxed loads: the
  /// answer is stale the moment it is computed; no ordering required.
  [[nodiscard]] std::int64_t size_estimate() const {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? b - t : 0;
  }

  [[nodiscard]] bool empty_estimate() const { return size_estimate() == 0; }

 private:
  struct Ring {
    explicit Ring(std::uint64_t cap) : capacity(cap), mask(cap - 1),
                                       slots(new verify::atomic<T>[cap]) {
      // Declares the plain capacity/mask/slots-pointer initialization to
      // the race checker: a thief may only reach this ring through the
      // `buffer_` consume load (CLD-da1296), whose release edge (grow's
      // CLD-69c545 store) carries this construction. Weaken either side and
      // the get() below races with this write.
      WASP_VERIFY_WR(this);
    }
    const std::uint64_t capacity;
    const std::uint64_t mask;
    std::unique_ptr<verify::atomic<T>[]> slots;

    // Slot accesses are relaxed: the ordering of the *contents* rides the
    // bottom_/top_ protocol (bottom release store CLD-b192e9, steal's fence +
    // CAS); the slots only need to be atomic to make owner/thief cell
    // overlap defined.
    T get(std::int64_t i) const {
      WASP_VERIFY_RD(this);  // plain mask/slots-pointer read (see ctor)
      return slots[static_cast<std::uint64_t>(i) & mask].load(std::memory_order_relaxed);
    }
    void put(std::int64_t i, T item) {
      WASP_VERIFY_RD(this);  // plain mask/slots-pointer read (see ctor)
      // relaxed: contents ride the bottom_/top_ protocol (see get above)
      slots[static_cast<std::uint64_t>(i) & mask].store(item, std::memory_order_relaxed);
    }
  };

  static std::uint64_t round_up_pow2(std::uint64_t x) {
    std::uint64_t p = 1;
    while (p < x) p <<= 1;
    return p;
  }

  Ring* grow(Ring* old, std::int64_t t, std::int64_t b) {
    auto* bigger = new Ring(old->capacity * 2);
    for (std::int64_t i = t; i < b; ++i) bigger->put(i, old->get(i));
    // Release (CLD-69c545): carries the new ring's construction and the
    // copied slots to the thief's consume load of buffer_ (CLD-da1296).
    buffer_.store(bigger, std::memory_order_release);
    retired_.emplace_back(bigger);  // owner-only container; old stays alive
    return bigger;
  }

  alignas(kCacheLineSize) verify::atomic<std::int64_t> top_{0};
  alignas(kCacheLineSize) verify::atomic<std::int64_t> bottom_{0};
  alignas(kCacheLineSize) verify::atomic<Ring*> buffer_{nullptr};
  std::vector<std::unique_ptr<Ring>> retired_;  // owns all rings ever used
};

}  // namespace wasp
