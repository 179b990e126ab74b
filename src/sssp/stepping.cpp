#include "sssp/stepping.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

#include "concurrent/dary_heap.hpp"
#include "concurrent/frontier_bag.hpp"
#include "support/padded.hpp"
#include "support/random.hpp"
#include "support/spin_barrier.hpp"
#include "support/thread_team.hpp"
#include "support/timer.hpp"
#include "verify/checked_atomic.hpp"
#include "verify/scheduler.hpp"

namespace wasp {

namespace {

using CId = obs::CounterId;

constexpr std::size_t kSparseLimit = 64;   // super-sparse round cut-off
constexpr std::uint64_t kPullDivisor = 20; // pull when frontier degree > |E|/20
constexpr std::size_t kSampleSize = 256;   // rho threshold estimation sample

}  // namespace

std::vector<Distance> compute_radii(const Graph& g, std::uint32_t k,
                                    ThreadTeam& team) {
  const VertexId n = g.num_vertices();
  std::vector<Distance> radii(n, 0);
  team.parallel_for(0, n, 64, [&](std::uint64_t lo, std::uint64_t hi) {
    // Truncated local Dijkstra: pop at most k settled vertices.
    DaryHeap<Distance, VertexId, 4> heap;
    std::vector<std::pair<VertexId, Distance>> settled;
    for (std::uint64_t vi = lo; vi < hi; ++vi) {
      const auto v = static_cast<VertexId>(vi);
      heap.clear();
      settled.clear();
      heap.push(0, v);
      Distance radius = 0;
      std::uint32_t found = 0;
      while (!heap.empty() && found <= k) {
        const auto [d, u] = heap.pop();
        bool seen = false;
        for (const auto& [su, sd] : settled)
          if (su == u) seen = true;
        if (seen) continue;
        settled.emplace_back(u, d);
        radius = d;
        ++found;
        if (found > k) break;
        for (const WEdge& e : g.out_neighbors(u)) {
          if (settled.size() + heap.size() > 8 * k) break;  // bound the probe
          heap.push(saturating_add(d, e.w), e.dst);
        }
      }
      radii[vi] = radius;
    }
  });
  return radii;
}

SsspResult stepping_sssp(const Graph& g, VertexId source, SteppingKind kind,
                         Weight delta, std::uint64_t rho,
                         bool direction_optimize, RunContext& ctx,
                         const std::vector<Distance>* radii) {
  if (kind == SteppingKind::kRadius && radii == nullptr)
    throw std::invalid_argument("radius-stepping needs precomputed radii");
  const int p = ctx.team.size();
  const VertexId n = g.num_vertices();
  AtomicDistances& dist = ctx.distances();
  dist.store(source, 0);

  std::vector<CachePadded<Distance>> local_min(static_cast<std::size_t>(p));
  std::vector<CachePadded<Distance>> local_rmin(static_cast<std::size_t>(p));
  FrontierBag bag(p);
  std::vector<verify::atomic<std::uint8_t>> in_frontier(n);
  // Relaxed init: precedes the team launch, which publishes the vector.
  for (auto& f : in_frontier) f.store(0, std::memory_order_relaxed);

  std::vector<VertexId> frontier{source};
  in_frontier[source].store(1, std::memory_order_relaxed);  // pre-run, as above
  verify::atomic<std::size_t> cursor{0};
  SpinBarrier barrier(p);
  Distance threshold = kInfDist;
  Distance settled_bound = 0;  // everything below this is final
  bool pull_round = false;
  bool done = false;
  std::uint64_t rounds = 0;
  Xoshiro256 sample_rng(0x5a11e57ULL);

  // Inserts v into the next frontier unless it is already pending.
  // acq_rel dedup flag: pairs with relax_to's release so whoever wins the
  // flag also sees the improved distance (same pairing as bellman_ford).
  const auto enqueue = [&](int tid, VertexId v) {
    if (in_frontier[v].exchange(1, std::memory_order_acq_rel) == 0)
      bag.insert(tid, v);
  };

  Timer timer;
  ctx.team.run([&](int tid) {
    verify::ScopedSchedule schedule_guard(tid);
    obs::MetricsShard& my = ctx.metrics.shard(tid);

    const auto relax_out = [&](VertexId u, Distance du) {
      my.inc(CId::kVerticesProcessed);
      for (const WEdge& e : g.out_neighbors(u)) {
        my.inc(CId::kRelaxations);
        if (dist.relax_to(e.dst, saturating_add(du, e.w))) {
          my.inc(CId::kUpdates);
          enqueue(tid, e.dst);
        }
      }
    };

    while (!done) {
      // --- Phase 1 (thread 0): choose the round threshold. ---------------
      // Frontier minimum: cooperative partition scan.
      {
        const std::size_t chunk = (frontier.size() + p - 1) / p;
        const std::size_t lo = std::min(frontier.size(), chunk * static_cast<std::size_t>(tid));
        const std::size_t hi = std::min(frontier.size(), lo + chunk);
        Distance m = kInfDist;
        Distance rm = kInfDist;  // min of dist(v) + r_k(v) for radius rule
        for (std::size_t i = lo; i < hi; ++i) {
          const Distance d = dist.load(frontier[i]);
          m = std::min(m, d);
          if (kind == SteppingKind::kRadius) {
            const Distance r = (*radii)[frontier[i]];
            if (d != kInfDist) rm = std::min(rm, d + r);
          }
        }
        local_min[static_cast<std::size_t>(tid)].value = m;
        local_rmin[static_cast<std::size_t>(tid)].value = rm;
      }
      barrier.wait(tid);
      if (tid == 0) {
        Distance fmin = kInfDist;
        for (int t = 0; t < p; ++t)
          fmin = std::min(fmin, local_min[static_cast<std::size_t>(t)].value);
        // Settled-bound invariant (non-negative weights): every vertex with
        // distance <= the current frontier minimum is final — any improving
        // path would have to pass through a frontier vertex of distance
        // >= fmin. The round *threshold* is NOT a settled bound (vertices in
        // (fmin, threshold] may still improve), so pull rounds key off fmin.
        if (fmin != kInfDist)
          settled_bound = std::max(settled_bound, fmin);
        if (kind == SteppingKind::kDeltaStar) {
          threshold = fmin >= kInfDist - delta ? kInfDist : fmin + delta;
        } else if (kind == SteppingKind::kRadius) {
          Distance rmin = kInfDist;
          for (int t = 0; t < p; ++t)
            rmin = std::min(rmin, local_rmin[static_cast<std::size_t>(t)].value);
          // Progress guarantee: at least the minimum-distance vertex passes.
          threshold = std::max(rmin, fmin);
        } else if (frontier.size() <= rho) {
          threshold = kInfDist;  // whole frontier fits in one batch
        } else {
          // Estimate the rho-th smallest frontier distance from a sample.
          Distance sample[kSampleSize];
          for (std::size_t i = 0; i < kSampleSize; ++i)
            sample[i] = dist.load(frontier[sample_rng.next_below(frontier.size())]);
          std::sort(sample, sample + kSampleSize);
          const auto idx = static_cast<std::size_t>(
              std::min<std::uint64_t>(kSampleSize - 1,
                                      kSampleSize * rho / frontier.size()));
          threshold = std::max(sample[idx], fmin);
        }
        // Direction decision (push unless the sub-threshold frontier is
        // dense and the graph is undirected).
        pull_round = false;
        if (direction_optimize && g.is_undirected() &&
            frontier.size() > kSparseLimit) {
          std::uint64_t degree_sum = 0;
          for (const VertexId v : frontier) degree_sum += g.out_degree(v);
          pull_round = degree_sum > g.num_edges() / kPullDivisor;
        }
        // Relaxed: the barrier below publishes the reset to the team.
        cursor.store(0, std::memory_order_relaxed);
      }
      barrier.wait(tid);

      // --- Phase 2: process. ---------------------------------------------
      if (frontier.size() <= kSparseLimit && !frontier.empty()) {
        // Super-sparse rounds: thread 0 runs threshold rounds sequentially
        // until the frontier grows, skipping all parallel machinery — the
        // optimization that keeps Δ*/ρ-stepping competitive on road graphs.
        if (tid == 0) {
          std::vector<VertexId> seq(frontier.begin(), frontier.end());
          std::vector<VertexId> next_seq;
          // poll_cancel (not just the flag): the sequential drain can run
          // many rounds between barriers, so it checks the deadline itself.
          while (!ctx.poll_cancel() && !seq.empty() &&
                 seq.size() <= kSparseLimit) {
            Distance fmin = kInfDist;
            Distance rmin = kInfDist;
            for (const VertexId u : seq) {
              const Distance d = dist.load(u);
              fmin = std::min(fmin, d);
              if (kind == SteppingKind::kRadius && d != kInfDist)
                rmin = std::min(rmin, d + (*radii)[u]);
            }
            Distance t_seq;
            if (kind == SteppingKind::kDeltaStar) {
              t_seq = fmin >= kInfDist - delta ? kInfDist : fmin + delta;
            } else if (kind == SteppingKind::kRadius) {
              t_seq = std::max(rmin, fmin);
            } else {
              t_seq = kInfDist;  // tiny frontier: take everything
            }
            next_seq.clear();
            for (const VertexId u : seq) {
              const Distance du = dist.load(u);
              if (du > t_seq) {
                next_seq.push_back(u);
                continue;
              }
              // acq_rel: dedup-flag pairing, see enqueue above.
              in_frontier[u].exchange(0, std::memory_order_acq_rel);
              my.inc(CId::kVerticesProcessed);
              for (const WEdge& e : g.out_neighbors(u)) {
                my.inc(CId::kRelaxations);
                if (dist.relax_to(e.dst, saturating_add(du, e.w))) {
                  my.inc(CId::kUpdates);
                  // acq_rel: dedup-flag pairing, see enqueue above.
                  if (in_frontier[e.dst].exchange(1, std::memory_order_acq_rel) == 0)
                    next_seq.push_back(e.dst);
                }
              }
            }
            seq.swap(next_seq);
            ++rounds;
          }
          // Hand any remainder back to the parallel path.
          for (const VertexId u : seq) bag.insert(0, u);
        }
      } else if (pull_round) {
        // Frontier vertices above the threshold are deferred; the rest are
        // consumed (their out-edges are covered by the pulls below).
        for (;;) {
          // Cancellation point: drop unclaimed blocks; Phase 3 folds the
          // token into `done` so all threads exit at the same barrier.
          if (ctx.stop_requested()) break;
          const std::size_t i = cursor.fetch_add(64, std::memory_order_relaxed);
          if (i >= frontier.size()) break;
          const std::size_t hi = std::min(i + 64, frontier.size());
          for (std::size_t k = i; k < hi; ++k) {
            const VertexId u = frontier[k];
            // acq_rel: dedup-flag pairing, see enqueue above.
            in_frontier[u].exchange(0, std::memory_order_acq_rel);
            if (dist.load(u) > threshold) enqueue(tid, u);
          }
        }
        barrier.wait(tid);
        // Relaxed: bracketed by barriers, which publish the reset.
        if (tid == 0) cursor.store(0, std::memory_order_relaxed);
        barrier.wait(tid);
        // Pull into every vertex that is not yet settled.
        for (;;) {
          // Cancellation point (see the defer loop above).
          if (ctx.stop_requested()) break;
          // Relaxed ticket: index-only payload; the barrier published data.
          const std::size_t blk = cursor.fetch_add(512, std::memory_order_relaxed);
          if (blk >= n) break;
          const std::size_t end = std::min<std::size_t>(blk + 512, n);
          for (std::size_t vi = blk; vi < end; ++vi) {
            const auto v = static_cast<VertexId>(vi);
            if (dist.load(v) <= settled_bound) continue;
            Distance best = dist.load(v);
            for (const WEdge& e : g.out_neighbors(v)) {
              my.inc(CId::kRelaxations);
              const Distance du = dist.load(e.dst);
              const Distance through = saturating_add(du, e.w);
              if (through < best) best = through;
            }
            if (dist.relax_to(v, best)) {
              my.inc(CId::kUpdates);
              enqueue(tid, v);
            }
          }
        }
      } else {
        for (;;) {
          // Cancellation point (see the defer loop above).
          if (ctx.stop_requested()) break;
          // Relaxed ticket: index-only payload; the barrier published data.
          const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
          if (i >= frontier.size()) break;
          const VertexId u = frontier[i];
          // acq_rel: dedup-flag pairing, see enqueue above.
          in_frontier[u].exchange(0, std::memory_order_acq_rel);
          const Distance du = dist.load(u);
          if (du > threshold) {
            enqueue(tid, u);  // defer to a later round
            continue;
          }
          relax_out(u, du);
        }
      }
      barrier.wait(tid);

      // --- Phase 3: gather the next frontier. ----------------------------
      if (tid == 0) {
        const std::size_t processed = frontier.size();
        const std::size_t total = bag.compute_offsets();
        frontier.resize(total);
        // Relaxed: the barrier below publishes the reset to the team.
        cursor.store(0, std::memory_order_relaxed);
        // Round-top deadline/cancel poll (tid 0 only, so all threads agree).
        done = total == 0 || ctx.poll_cancel();
        ++rounds;
        my.observe(obs::HistId::kRoundFrontier, processed);
        obs::trace_instant(ctx.trace, tid, obs::EventKind::kRoundTransition,
                           total);
        if (ctx.observer != nullptr) ctx.observer->on_round(rounds, processed);
      }
      barrier.wait(tid);
      if (done) break;
      bag.copy_out_and_clear(tid, frontier.data());
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
