#include "sssp/julienne.hpp"

#include <atomic>
#include <limits>

#include "support/padded.hpp"
#include "support/spin_barrier.hpp"
#include "support/thread_team.hpp"
#include "support/timer.hpp"
#include "verify/checked_atomic.hpp"

namespace wasp {

namespace {

using CId = obs::CounterId;

constexpr std::uint64_t kInfBin = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kOpenBuckets = 32;  // GBBS default bucket count
constexpr std::uint64_t kPullDivisor = 20;  // pull when frontier degree > |E|/20

/// Per-thread staging: a window of open buckets relative to `base`, plus an
/// overflow list for updates falling beyond the window.
struct Staging {
  std::vector<VertexId> open[kOpenBuckets];
  std::vector<VertexId> overflow;
};

}  // namespace

SsspResult julienne_sssp(const Graph& g, VertexId source, Weight delta,
                         bool direction_optimize, RunContext& ctx) {
  const int p = ctx.team.size();
  const VertexId n = g.num_vertices();
  AtomicDistances& dist = ctx.distances();
  dist.store(source, 0);

  std::vector<CachePadded<Staging>> staging(static_cast<std::size_t>(p));
  std::vector<CachePadded<std::uint64_t>> reduce(static_cast<std::size_t>(p));
  std::vector<CachePadded<std::uint64_t>> sizes(static_cast<std::size_t>(p));
  std::vector<CachePadded<std::uint64_t>> offsets(static_cast<std::size_t>(p));

  std::vector<VertexId> frontier{source};
  verify::atomic<std::size_t> cursor{0};
  std::uint64_t base = 0;      // bucket id of open slot 0
  std::uint64_t curr_bin = 0;  // absolute bucket id being processed
  std::uint64_t rounds = 0;
  bool done = false;
  bool pull_round = false;
  SpinBarrier barrier(p);

  const auto bin_of = [delta](Distance d) {
    return static_cast<std::uint64_t>(d) / delta;
  };

  Timer timer;
  ctx.team.run([&](int tid) {
    auto& my_staging = staging[static_cast<std::size_t>(tid)].value;
    obs::MetricsShard& my = ctx.metrics.shard(tid);

    const auto stage_update = [&](VertexId v, Distance nd) {
      const std::uint64_t bin = bin_of(nd);
      const std::uint64_t rel = bin - base;  // bin >= base always holds
      if (rel < kOpenBuckets) {
        my_staging.open[rel].push_back(v);
      } else {
        my_staging.overflow.push_back(v);
      }
    };

    while (!done) {
      if (pull_round) {
        // Direction-optimized round: every unsettled vertex pulls from its
        // neighbours. Parallelizing over destinations splits high-degree
        // sources (the Mawi hub) across threads.
        const std::uint64_t lower = curr_bin * static_cast<std::uint64_t>(delta);
        for (;;) {
          // Cancellation point: drop unclaimed blocks; the reduce below
          // folds the token into `done` so all threads exit together.
          if (ctx.stop_requested()) break;
          // Relaxed ticket: index-only payload; the barrier published data.
          const std::size_t blk = cursor.fetch_add(512, std::memory_order_relaxed);
          if (blk >= n) break;
          const std::size_t end = std::min<std::size_t>(blk + 512, n);
          for (std::size_t vi = blk; vi < end; ++vi) {
            const auto v = static_cast<VertexId>(vi);
            if (static_cast<std::uint64_t>(dist.load(v)) <= lower) continue;
            Distance best = dist.load(v);
            for (const WEdge& e : g.out_neighbors(v)) {
              my.inc(CId::kRelaxations);
              const Distance du = dist.load(e.dst);
              const Distance through = saturating_add(du, e.w);
              if (through < best) best = through;
            }
            if (dist.relax_to(v, best)) {
              my.inc(CId::kUpdates);
              stage_update(v, best);
            }
          }
        }
      } else {
        for (;;) {
          // Cancellation point (see the pull branch above).
          if (ctx.stop_requested()) break;
          // Relaxed ticket (see the pull branch above).
          const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
          if (i >= frontier.size()) break;
          const VertexId u = frontier[i];
          const Distance du = dist.load(u);
          if (static_cast<std::uint64_t>(du) <
              curr_bin * static_cast<std::uint64_t>(delta)) {
            my.inc(CId::kStaleSkips);
            continue;
          }
          my.inc(CId::kVerticesProcessed);
          for (const WEdge& e : g.out_neighbors(u)) {
            my.inc(CId::kRelaxations);
            const Distance nd = saturating_add(du, e.w);
            if (dist.relax_to(e.dst, nd)) {
              my.inc(CId::kUpdates);
              stage_update(e.dst, nd);
            }
          }
        }
      }
      barrier.wait(tid);

      // next_bucket(): find the smallest non-empty open bucket; if the whole
      // window is empty, re-bucket the overflow.
      std::uint64_t my_min = kInfBin;
      for (std::uint64_t r = curr_bin >= base ? curr_bin - base : 0;
           r < kOpenBuckets; ++r) {
        if (!my_staging.open[r].empty()) {
          my_min = base + r;
          break;
        }
      }
      reduce[static_cast<std::size_t>(tid)].value = my_min;
      barrier.wait(tid);
      if (tid == 0) {
        std::uint64_t next = kInfBin;
        for (int t = 0; t < p; ++t)
          next = std::min(next, reduce[static_cast<std::size_t>(t)].value);
        curr_bin = next;
        // Round-top deadline/cancel poll (tid 0 only): a fired token ends
        // the run at the barrier below, before the overflow/gather phases.
        done = ctx.poll_cancel();
        ++rounds;
        my.observe(obs::HistId::kRoundFrontier, frontier.size());
        obs::trace_instant(ctx.trace, tid, obs::EventKind::kRoundTransition,
                           next == kInfBin ? 0 : next);
        if (ctx.observer != nullptr)
          ctx.observer->on_round(rounds, frontier.size());
      }
      barrier.wait(tid);
      if (done) break;

      if (curr_bin == kInfBin) {
        // Window empty: re-bucket overflow (if any). New base is the
        // smallest current bucket among overflow entries.
        std::uint64_t omin = kInfBin;
        for (const VertexId v : my_staging.overflow)
          omin = std::min(omin, bin_of(dist.load(v)));
        reduce[static_cast<std::size_t>(tid)].value = omin;
        barrier.wait(tid);
        if (tid == 0) {
          std::uint64_t nb = kInfBin;
          for (int t = 0; t < p; ++t)
            nb = std::min(nb, reduce[static_cast<std::size_t>(t)].value);
          base = nb;
          done = nb == kInfBin;
        }
        barrier.wait(tid);
        if (done) break;
        // Redistribute this thread's overflow against the new base.
        std::vector<VertexId> old_overflow;
        old_overflow.swap(my_staging.overflow);
        for (const VertexId v : old_overflow) {
          const std::uint64_t rel = bin_of(dist.load(v)) - base;
          if (rel < kOpenBuckets) {
            my_staging.open[rel].push_back(v);
          } else {
            my_staging.overflow.push_back(v);
          }
        }
        barrier.wait(tid);
        if (tid == 0) curr_bin = base;  // retry bucket search next loop
        // Publish an empty frontier so the next iteration is a no-op
        // processing phase followed by a fresh bucket search.
        if (tid == 0) {
          frontier.clear();
          cursor.store(0, std::memory_order_relaxed);
          pull_round = false;
        }
        barrier.wait(tid);
        continue;
      }

      // Gather the chosen bucket into the shared frontier.
      const std::uint64_t rel = curr_bin - base;
      sizes[static_cast<std::size_t>(tid)].value = my_staging.open[rel].size();
      barrier.wait(tid);
      if (tid == 0) {
        std::uint64_t total = 0;
        for (int t = 0; t < p; ++t) {
          offsets[static_cast<std::size_t>(t)].value = total;
          total += sizes[static_cast<std::size_t>(t)].value;
        }
        frontier.resize(total);
        // Relaxed: the barrier below publishes the reset to the team.
        cursor.store(0, std::memory_order_relaxed);
      }
      barrier.wait(tid);
      {
        auto& bucket = my_staging.open[rel];
        VertexId* out = frontier.data() + offsets[static_cast<std::size_t>(tid)].value;
        for (std::size_t i = 0; i < bucket.size(); ++i) out[i] = bucket[i];
        bucket.clear();
      }
      barrier.wait(tid);
      if (tid == 0) {
        // Decide push vs pull for the next processing phase.
        pull_round = false;
        if (direction_optimize && g.is_undirected()) {
          std::uint64_t degree_sum = 0;
          for (const VertexId v : frontier) degree_sum += g.out_degree(v);
          pull_round = degree_sum > g.num_edges() / kPullDivisor;
        }
        // Relaxed: barrier-published reset, as above.
        cursor.store(0, std::memory_order_relaxed);
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
