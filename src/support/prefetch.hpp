// Software-prefetch shim for the relaxation hot loops.
//
// SSSP on large graphs is memory-bound: the paper's profile (and the
// stepping-algorithms literature) attributes most wall-clock to cache misses
// on dist[] — the access pattern is data-dependent (edge targets), so the
// hardware prefetcher cannot help. The drain loops in Wasp, delta-stepping,
// and the MultiQueue/SMQ solvers know their next k targets well before
// relaxing them, and issue prefetches kPrefetchLookahead entries ahead
// (results are identical with or without the hints).
#pragma once

#include <cstdint>

namespace wasp {

/// How far ahead the relaxation loops prefetch, in edges (or, in chunk
/// drains, in entries): while relaxing edge j a worker prefetches the
/// distance entry of edge j + kPrefetchLookahead's target.
/// docs/PERFORMANCE.md has the measurement behind the value.
inline constexpr std::uint32_t kPrefetchLookahead = 4;

/// Hints the read of the cache line containing `p` into all cache levels.
/// A no-op on compilers without __builtin_prefetch; never faults, so callers
/// may pass addresses they will not actually dereference.
inline void prefetch_read(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

}  // namespace wasp
