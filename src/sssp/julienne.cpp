#include "sssp/julienne.hpp"

#include <algorithm>
#include <limits>

#include "sssp/rounds.hpp"

namespace wasp {

namespace {

constexpr std::uint64_t kInfBin = std::numeric_limits<std::uint64_t>::max();
/// Reported by a thread whose window is empty but whose overflow is not.
constexpr std::uint64_t kOverflowBin = kInfBin - 1;
constexpr std::uint64_t kOpenBuckets = 32;  // GBBS default bucket count

/// Per-thread staging: a window of open buckets relative to `base`, plus an
/// overflow list for updates falling beyond the window.
struct Staging {
  std::vector<VertexId> open[kOpenBuckets];
  std::vector<VertexId> overflow;
  std::uint64_t next = 0;  // this thread's candidate bucket (or base)
};

}  // namespace

SsspResult julienne_sssp(const Graph& g, VertexId source, Weight delta,
                         bool direction_optimize, RunContext& ctx) {
  RoundDriver rounds(g, source, ctx, direction_optimize);
  AtomicDistances& dist = rounds.dist;
  std::vector<CachePadded<Staging>> staging(
      static_cast<std::size_t>(ctx.team.size()));
  // Written by thread 0 between barriers only.
  std::uint64_t base = 0;      // bucket id of open slot 0
  std::uint64_t curr_bin = 0;  // absolute bucket id being processed
  bool rebucket = false;       // the window ran dry last round

  const auto bin_of = [delta](Distance d) {
    return static_cast<std::uint64_t>(d) / delta;
  };
  // Smallest value of `next` over all threads.
  const auto min_next = [&] {
    std::uint64_t m = kInfBin;
    for (const auto& s : staging) m = std::min(m, s.value.next);
    return m;
  };

  return rounds.run([&](int tid, obs::MetricsShard& my) {
    Staging& mine = staging[static_cast<std::size_t>(tid)].value;
    const auto stage = [&](VertexId v, Distance d) {
      const std::uint64_t rel = bin_of(d) - base;  // bin >= base always holds
      (rel < kOpenBuckets ? mine.open[rel] : mine.overflow).push_back(v);
    };

    do {
      if (rebucket) {
        // Re-base the window on the smallest overflow bucket and
        // redistribute the overflow against it. This round's frontier is
        // empty.
        mine.next = kInfBin;
        for (const VertexId v : mine.overflow)
          mine.next = std::min(mine.next, bin_of(dist.load(v)));
        rounds.barrier.wait(tid);
        if (tid == 0) {
          base = curr_bin = min_next();
          rebucket = false;
        }
        rounds.barrier.wait(tid);
        std::vector<VertexId> old_overflow;
        old_overflow.swap(mine.overflow);
        for (const VertexId v : old_overflow) stage(v, dist.load(v));
      } else if (rounds.pull_round()) {
        rounds.pull(my, static_cast<Distance>(curr_bin * delta), stage);
      } else {
        rounds.claim([&](VertexId u) {
          rounds.relax_if_fresh(my, u, curr_bin * delta, stage);
        });
      }
      // next_bucket(): the smallest non-empty open bucket of this thread.
      mine.next = mine.overflow.empty() ? kInfBin : kOverflowBin;
      for (std::uint64_t r = curr_bin - base; r < kOpenBuckets; ++r) {
        if (!mine.open[r].empty()) {
          mine.next = base + r;
          break;
        }
      }
    } while (rounds.end_round(tid, [&] {
      const std::uint64_t next = min_next();
      // The whole window is empty: gather nothing this round and re-bucket
      // the overflow at the top of the next.
      rebucket = next == kOverflowBin;
      if (next < kOverflowBin) {
        curr_bin = next;
        for (int t = 0; t < ctx.team.size(); ++t) {
          rounds.bag.select(
              t, staging[static_cast<std::size_t>(t)].value.open[next - base]);
        }
      }
      return rebucket;
    }));
  });
}

}  // namespace wasp
