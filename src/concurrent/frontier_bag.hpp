// Cooperative frontier gather: the "lazy-batched" frontier store of the
// round baselines (Dong, Gu, Sun & Zhang, SPAA'21 use a parallel hash-bag;
// this is the same contract on a flat layout). RoundDriver
// (sssp/rounds.hpp) runs every round end through it.
//
// Threads append to private segments with no synchronization. Between
// barriers, one thread computes offsets and every thread copies its own
// segment into a shared dense array. A segment need not live in the bag:
// select() points a thread's next gather at a vector the algorithm stages
// in itself (GAP's current bin, Julienne's open bucket), and the same
// offsets and copy-out serve it. All methods are safe under that
// discipline only (documented per method).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/padded.hpp"
#include "support/types.hpp"
#include "verify/checked_atomic.hpp"

namespace wasp {

class FrontierBag {
 public:
  explicit FrontierBag(int threads)
      : segments_(static_cast<std::size_t>(threads)) {}

  /// Appends to the caller's private segment. Concurrent across distinct
  /// tids. The WASP_VERIFY annotations encode the phase discipline: a
  /// segment is racy unless the barrier protocol orders inserts against the
  /// offset scan and the copy-out.
  void insert(int tid, VertexId v) {
    auto& own = segments_[static_cast<std::size_t>(tid)].value.own;
    WASP_VERIFY_WR(&own);
    own.push_back(v);
  }

  /// Single-threaded (between barriers): thread `tid`'s next gather takes
  /// `segment` instead of its insert segment, until its copy_out_and_clear.
  void select(int tid, std::vector<VertexId>& segment) {
    segments_[static_cast<std::size_t>(tid)].value.selected = &segment;
  }

  /// Single-threaded (between barriers): computes per-thread offsets over
  /// the gathered segments and returns the total element count.
  std::size_t compute_offsets() {
    std::size_t total = 0;
    for (auto& padded : segments_) {
      Segment& s = padded.value;
      WASP_VERIFY_RD(&s.gathered());
      s.offset = total;
      total += s.gathered().size();
    }
    return total;
  }

  /// Cooperative (after compute_offsets + barrier): copies the caller's
  /// gathered segment into `out` at its offset, clears it, and returns the
  /// copied range. `out` must have room for compute_offsets() elements.
  std::span<const VertexId> copy_out_and_clear(int tid, VertexId* out) {
    Segment& s = segments_[static_cast<std::size_t>(tid)].value;
    std::vector<VertexId>& from = s.gathered();
    WASP_VERIFY_WR(&from);
    VertexId* dst = out + s.offset;
    for (std::size_t i = 0; i < from.size(); ++i) dst[i] = from[i];
    const std::span<const VertexId> copied(dst, from.size());
    from.clear();
    s.selected = nullptr;
    return copied;
  }

 private:
  struct Segment {
    std::vector<VertexId> own;
    std::vector<VertexId>* selected = nullptr;  // null: gather `own`
    std::size_t offset = 0;

    std::vector<VertexId>& gathered() {
      return selected != nullptr ? *selected : own;
    }
  };

  std::vector<CachePadded<Segment>> segments_;
};

}  // namespace wasp
