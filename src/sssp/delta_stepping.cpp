#include "sssp/delta_stepping.hpp"

#include <atomic>
#include <limits>

#include "support/padded.hpp"
#include "support/prefetch.hpp"
#include "support/spin_barrier.hpp"
#include "support/thread_team.hpp"
#include "support/timer.hpp"
#include "verify/checked_atomic.hpp"
#include "verify/scheduler.hpp"

namespace wasp {

namespace {

using CId = obs::CounterId;

constexpr std::uint64_t kInfBin = std::numeric_limits<std::uint64_t>::max();

/// A thread's bin array: bin i holds vertices with coarsened distance i.
/// Grown on demand (power-of-two rounding like the paper's bucket vector).
struct LocalBins {
  std::vector<std::vector<VertexId>> bins;

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
                          bool bucket_fusion, RunContext& ctx) {
  const int p = ctx.team.size();
  AtomicDistances& dist = ctx.distances();
  dist.store(source, 0);
  const std::uint32_t lookahead = ctx.prefetch_lookahead;

  std::vector<CachePadded<LocalBins>> bins(static_cast<std::size_t>(p));
  std::vector<CachePadded<std::uint64_t>> local_min(static_cast<std::size_t>(p));
  std::vector<CachePadded<std::uint64_t>> local_size(static_cast<std::size_t>(p));
  std::vector<CachePadded<std::uint64_t>> local_offset(static_cast<std::size_t>(p));

  std::vector<VertexId> frontier{source};
  verify::atomic<std::size_t> cursor{0};
  std::uint64_t curr_bin = 0;
  std::uint64_t rounds = 0;
  bool done = false;
  SpinBarrier barrier(p);

  Timer timer;
  ctx.team.run([&](int tid) {
    verify::ScopedSchedule schedule_guard(tid);
    chaos::ScopedInstall chaos_guard(ctx.chaos, tid);
    auto& my_bins = bins[static_cast<std::size_t>(tid)].value;
    obs::MetricsShard& my = ctx.metrics.shard(tid);

    // Relaxes u's out-edges; improved vertices land in this thread's bins.
    const auto process_vertex = [&](VertexId u) {
      const Distance du = dist.load(u);
      // Stale check (a better path moved u to an earlier bin already):
      // Algorithm 1 line 20, distance[u] >= delta * prio.
      if (static_cast<std::uint64_t>(du) <
          curr_bin * static_cast<std::uint64_t>(delta)) {
        my.inc(CId::kStaleSkips);
        return;
      }
      my.inc(CId::kVerticesProcessed);
      // Indexed drain so edge j can prefetch the dist entry of edge
      // j + lookahead's target (the only data-dependent miss here).
      const WEdge* edges = g.edge_data() + g.edge_offset(u);
      const std::uint32_t deg = g.out_degree(u);
      for (std::uint32_t j = 0; j < deg; ++j) {
        if (lookahead != 0 && j + lookahead < deg)
          prefetch_read(dist.prefetch_addr(edges[j + lookahead].dst));
        const WEdge& e = edges[j];
        my.inc(CId::kRelaxations);
        const Distance nd = saturating_add(du, e.w);
        if (dist.relax_to(e.dst, nd)) {
          my.inc(CId::kUpdates);
          my_bins.at(nd / delta).push_back(e.dst);
        }
      }
      if (lookahead != 0 && deg > lookahead)
        my.inc(CId::kPrefetchIssued, deg - lookahead);
    };

    while (!done) {
      // Bulk-process the shared frontier (the current bin's vertices).
      for (;;) {
        // Cancellation point (relaxed poll per claimed vertex): unclaimed
        // frontier entries are simply dropped; the round's reduction below
        // folds the token into the shared `done` decision so every thread
        // leaves at the same barrier.
        if (ctx.stop_requested()) break;
        const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= frontier.size()) break;
        process_vertex(frontier[i]);
      }

      // Bucket fusion: keep draining our own current bin while it is small,
      // saving whole synchronous steps (GAP's optimization for
      // large-diameter graphs).
      if (bucket_fusion) {
        std::vector<VertexId> fused;
        while (!ctx.stop_requested() && curr_bin < my_bins.bins.size() &&
               !my_bins.bins[curr_bin].empty() &&
               my_bins.bins[curr_bin].size() <= kFusionLimit) {
          fused.swap(my_bins.bins[curr_bin]);
          // The fused drain knows its whole work list up front: warm the
          // distance entry and adjacency offsets of the vertex `lookahead`
          // slots ahead while processing this one.
          for (std::size_t i = 0; i < fused.size(); ++i) {
            if (lookahead != 0 && i + lookahead < fused.size()) {
              const VertexId ahead = fused[i + lookahead];
              prefetch_read(dist.prefetch_addr(ahead));
              prefetch_read(g.offsets_data() + ahead);
            }
            process_vertex(fused[i]);
          }
          if (lookahead != 0 && fused.size() > lookahead)
            my.inc(CId::kPrefetchIssued, 2 * (fused.size() - lookahead));
          fused.clear();
        }
      }

      barrier.wait(tid);

      // Cooperative gather of the next bin into the shared frontier.
      local_min[static_cast<std::size_t>(tid)].value =
          my_bins.min_non_empty(curr_bin);
      barrier.wait(tid);
      if (tid == 0) {
        std::uint64_t next = kInfBin;
        for (int t = 0; t < p; ++t)
          next = std::min(next, local_min[static_cast<std::size_t>(t)].value);
        curr_bin = next;
        // Round-top deadline/cancel poll, folded into the shared `done`
        // decision by tid 0 alone so all threads agree on it.
        done = next == kInfBin || ctx.poll_cancel();
        ++rounds;
        // One on_round per synchronous step, with the frontier this step just
        // processed (call count == stats.rounds; tests rely on it).
        my.observe(obs::HistId::kRoundFrontier, frontier.size());
        obs::trace_instant(ctx.trace, tid, obs::EventKind::kRoundTransition,
                           next == kInfBin ? 0 : next);
        if (ctx.observer != nullptr)
          ctx.observer->on_round(rounds, frontier.size());
      }
      barrier.wait(tid);
      if (done) break;

      local_size[static_cast<std::size_t>(tid)].value =
          curr_bin < my_bins.bins.size() ? my_bins.bins[curr_bin].size() : 0;
      barrier.wait(tid);
      if (tid == 0) {
        std::uint64_t total = 0;
        for (int t = 0; t < p; ++t) {
          local_offset[static_cast<std::size_t>(t)].value = total;
          total += local_size[static_cast<std::size_t>(t)].value;
        }
        frontier.resize(total);
        // Relaxed: the barrier below publishes the reset to the team.
        cursor.store(0, std::memory_order_relaxed);
      }
      barrier.wait(tid);
      if (curr_bin < my_bins.bins.size()) {
        auto& bin = my_bins.bins[curr_bin];
        VertexId* out =
            frontier.data() + local_offset[static_cast<std::size_t>(tid)].value;
        for (std::size_t i = 0; i < bin.size(); ++i) out[i] = bin[i];
        bin.clear();
      }
      barrier.wait(tid);
    }
  });

  const double seconds = timer.seconds();
  ctx.metrics.shard(0).inc(CId::kRounds, rounds);
  ctx.metrics.shard(0).inc(CId::kBarrierNs, barrier.total_wait_ns());
  SsspResult result;
  finalize_result(ctx, seconds, result);
  result.dist = dist.snapshot();
  return result;
}

}  // namespace wasp
