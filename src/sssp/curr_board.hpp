// CurrBoard: the curr-level publication protocol of the Wasp engine
// (paper §4.2/§4.3, Algorithm 1 line 23 / Algorithm 2).
//
// One cache-padded slot per worker advertises the priority level whose
// chunks that worker currently exposes in its Chase-Lev deque. Thieves read
// the board twice over: steal policies *probe* it to pick victims whose
// level is worth leaving their best local bucket for (steal_window_admits
// below), and the termination protocol *scans* it for the all-idle verdict.
//
// Extracted from wasp.cpp so the protocol's freshness contract is a
// testable unit: the release/acquire pair below is exactly what guarantees
// a thief that observed a published level can steal the chunks pushed
// before it (tests/test_verify.cpp WaspCurrProtocol — the publish() site is
// a deterministically killed mutant, see docs/CONCURRENCY.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "concurrent/chunk.hpp"  // kInfPriority
#include "support/padded.hpp"
#include "verify/checked_atomic.hpp"

namespace wasp {

/// `curr` value of a thread that is out of local work and sweeping victims
/// (or draining its inbound channel). Distinct from kInfPriority so a thief
/// holding freshly stolen or drained work can never be mistaken for an idle
/// thread by the termination scan.
inline constexpr std::uint64_t kStealingPriority = kInfPriority - 1;

/// Levels a victim must lead a thief's next local bucket by before the
/// priority steal takes from it: a thief may drift one bucket ahead of the
/// best published level, but no further. Algorithm 2 steals at any lead
/// (a gap of 0). On a 4-CPU box, 4 threads on a 409,600-vertex road grid
/// at delta 64, that meant about 3,300 steals per solve, each dragging a
/// neighbour's wavefront onto the thief's core; a gap of 2 cut them to
/// about 250 and the solve from 28.6 to 21.1 ms with 1.5% fewer updates.
/// The gap is in levels, so it costs work where a level is wide: +6-8%
/// updates on road grids at delta 1024, +9% on UR at delta 64, within
/// noise on TW, UR, MW and KV at their default deltas (EXPERIMENTS.md §4.2).
inline constexpr std::uint64_t kStealMinGap = 2;

/// Algorithm 2's victim test with the drift window: may a thief whose best
/// local bucket is `next` steal from a victim publishing `victim`? A thief
/// with no local work (`next == kInfPriority`, every termination sweep)
/// takes from anyone, as in the paper. A thief with local work takes only
/// from a working victim at least kStealMinGap levels better; written so
/// that neither side can wrap.
[[nodiscard]] constexpr bool steal_window_admits(std::uint64_t victim,
                                                 std::uint64_t next) {
  if (next == kInfPriority) return true;
  return next >= kStealMinGap && victim <= next - kStealMinGap;
}

class CurrBoard {
 public:
  /// Slots start at kInfPriority ("no work"), the idle state the
  /// termination scan looks for. Relaxed: construction precedes the team
  /// launch, which carries the edge to every worker.
  explicit CurrBoard(int threads)
      : slots_(static_cast<std::size_t>(threads)) {
    for (auto& s : slots_)
      s.value.store(kInfPriority, std::memory_order_relaxed);
  }

  CurrBoard(const CurrBoard&) = delete;
  CurrBoard& operator=(const CurrBoard&) = delete;

  /// Publishes the level whose chunks `tid` is now exposing. Release: the
  /// chunks (and their plain priority/range fields) were pushed to the
  /// deque *before* the level is claimed, and this store is what carries
  /// them to a thief whose probe() reads it — the probe-then-steal
  /// freshness contract the WaspCurrProtocol tests pin down.
  void publish(int tid, std::uint64_t level) {
    slots_[static_cast<std::size_t>(tid)].value.store(
        level, std::memory_order_release);
  }

  /// Steal-policy read of a victim's published level (Algorithm 2 gate and
  /// the two-choice policy). Acquire: reads-from publish(), so a thief
  /// that saw the level also sees the deque state pushed before it. The
  /// acquire is the published order of the probe-then-steal contract, but
  /// it is advisory: steal() re-synchronizes through the deque's own
  /// bottom release/acquire edge, so a weakened probe costs at most a
  /// spurious empty steal (waived mutant CURR-c05129, docs/CONCURRENCY.md).
  [[nodiscard]] std::uint64_t probe(int victim) const {
    return slots_[static_cast<std::size_t>(victim)].value.load(
        std::memory_order_acquire);
  }

  /// Termination-scan read (§4.3 double-scan). Acquire: pairs with
  /// publish() so a scanner that observes a worker idle is ordered after
  /// that worker's last real-level activity; the double-scan epoch check
  /// tolerates staleness here (see WaspWorker::terminate).
  [[nodiscard]] std::uint64_t scan(int t) const {
    return slots_[static_cast<std::size_t>(t)].value.load(
        std::memory_order_acquire);
  }

  [[nodiscard]] int size() const { return static_cast<int>(slots_.size()); }

 private:
  std::vector<CachePadded<verify::atomic<std::uint64_t>>> slots_;
};

}  // namespace wasp
