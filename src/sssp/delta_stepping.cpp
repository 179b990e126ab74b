#include "sssp/delta_stepping.hpp"

#include <algorithm>
#include <limits>

#include "sssp/rounds.hpp"

namespace wasp {

namespace {

using CId = obs::CounterId;

constexpr std::uint64_t kInfBin = std::numeric_limits<std::uint64_t>::max();

/// A thread's bin array: bin i holds vertices with coarsened distance i.
/// Grown on demand (power-of-two rounding like the paper's bucket vector).
struct LocalBins {
  std::vector<std::vector<VertexId>> bins;
  std::uint64_t next = 0;  // smallest non-empty bin, for the round end

  std::vector<VertexId>& at(std::uint64_t bin) {
    if (bin >= bins.size()) {
      std::size_t cap = bins.empty() ? 64 : bins.size();
      while (cap <= bin) cap *= 2;
      bins.resize(cap);
    }
    return bins[bin];
  }

  [[nodiscard]] std::uint64_t min_non_empty(std::uint64_t from) const {
    for (std::uint64_t b = from; b < bins.size(); ++b)
      if (!bins[b].empty()) return b;
    return kInfBin;
  }
};

// GAP's bucket-fusion bound: a thread keeps draining its own current bin
// within a step while it stays below this size.
constexpr std::size_t kFusionLimit = 1u << 12;

}  // namespace

SsspResult delta_stepping(const Graph& g, VertexId source, Weight delta,
                          RunContext& ctx) {
  RoundDriver rounds(g, source, ctx);
  AtomicDistances& dist = rounds.dist;
  constexpr std::uint32_t lookahead = kPrefetchLookahead;
  std::vector<CachePadded<LocalBins>> bins(
      static_cast<std::size_t>(ctx.team.size()));
  std::uint64_t curr_bin = 0;  // written by thread 0 at the round end

  return rounds.run([&](int tid, obs::MetricsShard& my) {
    LocalBins& mine = bins[static_cast<std::size_t>(tid)].value;
    // Improved vertices land in this thread's bins.
    const auto visit = [&](VertexId u) {
      rounds.relax_if_fresh(my, u, curr_bin * delta,
                            [&](VertexId v, Distance d) {
                              mine.at(d / delta).push_back(v);
                            });
    };

    do {
      rounds.claim(visit);

      // Bucket fusion: keep draining our own current bin while it is small,
      // saving whole synchronous steps (GAP's optimization for
      // large-diameter graphs).
      std::vector<VertexId> fused;
      while (!ctx.stop_requested() && curr_bin < mine.bins.size() &&
             !mine.bins[curr_bin].empty() &&
             mine.bins[curr_bin].size() <= kFusionLimit) {
        fused.swap(mine.bins[curr_bin]);
        // The fused drain knows its whole work list up front: warm the
        // distance entry and adjacency offsets of the vertex `lookahead`
        // slots ahead while processing this one.
        for (std::size_t i = 0; i < fused.size(); ++i) {
          if (i + lookahead < fused.size()) {
            const VertexId ahead = fused[i + lookahead];
            prefetch_read(dist.prefetch_addr(ahead));
            prefetch_read(g.offsets_data() + ahead);
          }
          visit(fused[i]);
        }
        if (fused.size() > lookahead)
          my.inc(CId::kPrefetchIssued, 2 * (fused.size() - lookahead));
        fused.clear();
      }
      // Only this thread fills its bins, so its minimum is final here.
      mine.next = mine.min_non_empty(curr_bin);
    } while (rounds.end_round(tid, [&] {
      // The next frontier is the smallest non-empty bin of any thread.
      curr_bin = kInfBin;
      for (const auto& b : bins) curr_bin = std::min(curr_bin, b.value.next);
      if (curr_bin != kInfBin) {
        for (int t = 0; t < ctx.team.size(); ++t) {
          rounds.bag.select(
              t, bins[static_cast<std::size_t>(t)].value.at(curr_bin));
        }
      }
      return false;
    }));
  });
}

}  // namespace wasp
