// Chunks: the unit of batching and of work transfer in Wasp (paper §4.3).
//
// A chunk is a fixed-capacity ring buffer of vertices with
//  * a `priority` field recording the coarsened priority level (bucket
//    index) its vertices belong to,
//  * a `next` pointer so thread-local buckets can be linked lists of chunks,
//  * `range_begin`/`range_end` fields so a chunk can alternatively carry the
//    partial neighborhood of a single high-degree vertex (the neighborhood-
//    decomposition optimization, §4.4).
//
// The capacity is a compile-time template parameter; the paper uses 64 and
// reports Wasp is insensitive to the choice (§5.1) — the sensitivity bench
// verifies that claim with the explicit instantiations in wasp.cpp. `Chunk`
// is the default 64-vertex configuration.
//
// A chunk is only ever accessed by one thread at a time: the owner fills and
// drains it, and ownership transfers wholesale when a chunk is stolen from a
// Chase-Lev deque. Hence no atomics here.
//
// ChunkArena/ChunkPool implement recycling: chunks are carved from shared
// slabs (so they outlive thread-local pools and can migrate between threads)
// and returned to the *current* owner's freelist when drained.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "support/types.hpp"
#include "verify/checked_atomic.hpp"

namespace wasp {

/// Priority level value meaning "no work" (used by Wasp's `curr` protocol).
inline constexpr std::uint64_t kInfPriority = ~std::uint64_t{0};

template <std::uint32_t Capacity>
class BasicChunk {
  static_assert(Capacity >= 1, "chunk capacity must be positive");

 public:
  static constexpr std::uint32_t kCapacity = Capacity;

  [[nodiscard]] bool empty() const { return head_ == tail_; }
  [[nodiscard]] bool full() const { return tail_ - head_ == kCapacity; }
  [[nodiscard]] std::uint32_t size() const { return tail_ - head_; }

  /// Appends a vertex. Precondition: !full().
  ///
  /// The WASP_VERIFY annotations (here and below) declare the single-owner
  /// contract to the happens-before checker: whatever protocol hands a chunk
  /// between threads (a Chase-Lev deque, a pool) must carry an hb edge, or
  /// the checker reports the two access sites as a race.
  void push(VertexId v) {
    assert(!full());
    WASP_VERIFY_WR(this);
    slots_[tail_ % kCapacity] = v;
    ++tail_;
  }

  /// Removes and returns the most recently pushed vertex (LIFO: best
  /// locality for the owner). Precondition: !empty().
  VertexId pop() {
    assert(!empty());
    WASP_VERIFY_WR(this);
    --tail_;
    return slots_[tail_ % kCapacity];
  }

  /// Returns the vertex `depth` entries below the LIFO top without removing
  /// it (depth 0 is what the next pop() returns) — the drain loops peek past
  /// the current vertex to prefetch upcoming distance entries and adjacency
  /// offsets. Precondition: depth < size().
  [[nodiscard]] VertexId peek(std::uint32_t depth) const {
    assert(depth < size());
    WASP_VERIFY_RD(this);
    return slots_[(tail_ - 1 - depth) % kCapacity];
  }

  /// Removes and returns the oldest vertex (FIFO end of the ring).
  VertexId pop_front() {
    assert(!empty());
    WASP_VERIFY_WR(this);
    const VertexId v = slots_[head_ % kCapacity];
    ++head_;
    return v;
  }

  /// The priority/range fields are *value-modeled* (verify::plain_load /
  /// plain_store) rather than only race-checked: they are exactly the plain
  /// payload a thief consumes after a steal, so a missing hb edge on the
  /// handoff protocol shows up as a stale level/range value in the
  /// simulation, not just a race verdict.
  [[nodiscard]] std::uint64_t priority() const {
    return verify::plain_load(priority_);
  }
  void set_priority(std::uint64_t p) { verify::plain_store(priority_, p); }

  /// Turns this chunk into a single-vertex neighborhood-range chunk for
  /// edges [begin, end) of v's adjacency.
  void make_range(VertexId v, std::uint32_t begin, std::uint32_t end) {
    assert(empty());
    push(v);
    verify::plain_store(range_begin_, begin);
    verify::plain_store(range_end_, end);
  }

  /// True when the chunk carries a neighborhood sub-range rather than a set
  /// of whole vertices.
  [[nodiscard]] bool is_range() const {
    return verify::plain_load(range_begin_) != verify::plain_load(range_end_);
  }
  [[nodiscard]] std::uint32_t range_begin() const {
    return verify::plain_load(range_begin_);
  }
  [[nodiscard]] std::uint32_t range_end() const {
    return verify::plain_load(range_end_);
  }

  /// Returns the chunk to a pristine state for reuse.
  void reset() {
    WASP_VERIFY_WR(this);
    head_ = tail_ = 0;
    verify::plain_store(range_begin_, std::uint32_t{0});
    verify::plain_store(range_end_, std::uint32_t{0});
    verify::plain_store(priority_, std::uint64_t{0});
    next = nullptr;
  }

  /// Intrusive link used by the thread-local bucket lists.
  BasicChunk* next = nullptr;

 private:
  std::uint32_t head_ = 0;
  std::uint32_t tail_ = 0;
  std::uint32_t range_begin_ = 0;
  std::uint32_t range_end_ = 0;
  std::uint64_t priority_ = 0;
  VertexId slots_[kCapacity];
};

/// The paper's configuration: 64-vertex chunks.
using Chunk = BasicChunk<64>;

/// Shared slab owner. Thread-safe slab carving; slabs live until the arena
/// is destroyed, so chunk pointers stay valid across steals.
template <typename ChunkT>
class BasicChunkArena {
 public:
  /// Carves `count` fresh chunks and returns the first; the block is linked
  /// through ChunkT::next.
  ChunkT* allocate_block(std::uint32_t count) {
    auto slab = std::make_unique<ChunkT[]>(count);
    ChunkT* first = slab.get();
    for (std::uint32_t i = 0; i + 1 < count; ++i) slab[i].next = &slab[i + 1];
    slab[count - 1].next = nullptr;
    std::lock_guard<std::mutex> guard(mutex_);
    slabs_.push_back(std::move(slab));
    return first;
  }

  /// Number of slabs allocated so far (observability / tests).
  [[nodiscard]] std::size_t num_slabs() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return slabs_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ChunkT[]>> slabs_;
};

using ChunkArena = BasicChunkArena<Chunk>;

/// Per-thread freelist over a shared arena. Not thread-safe; one per worker.
template <typename ChunkT>
class BasicChunkPool {
 public:
  explicit BasicChunkPool(BasicChunkArena<ChunkT>& arena,
                          std::uint32_t block_size = 128)
      : arena_(&arena), block_size_(block_size) {}

  /// Returns a pristine chunk. The scheduler's kChunkAllocFail fault
  /// simulates an exhausted freelist: the pool abandons its (drained) free
  /// chunks to the arena and carves a fresh slab, exercising the allocation
  /// path and cross-thread chunk migration.
  ChunkT* get() {
    if (free_ == nullptr || verify::inject(verify::Fault::kChunkAllocFail))
      free_ = arena_->allocate_block(block_size_);
    ChunkT* c = free_;
    free_ = c->next;
    c->reset();
    return c;
  }

  /// Recycles a drained chunk into this thread's freelist. The chunk may
  /// have been allocated by any thread (stolen chunks are recycled by the
  /// thief, per §4.3).
  void put(ChunkT* c) {
    c->next = free_;
    free_ = c;
  }

 private:
  BasicChunkArena<ChunkT>* arena_;
  ChunkT* free_ = nullptr;
  std::uint32_t block_size_;
};

using ChunkPool = BasicChunkPool<Chunk>;

}  // namespace wasp
