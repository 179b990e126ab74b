#include "sssp/stepping.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "concurrent/dary_heap.hpp"
#include "sssp/rounds.hpp"
#include "support/random.hpp"

namespace wasp {

namespace {

constexpr std::size_t kSparseLimit = 64;  // super-sparse round cut-off
constexpr std::size_t kSampleSize = 256;  // rho threshold estimation sample

/// Frontier minima that feed the threshold rule.
struct Bounds {
  Distance min = kInfDist;         // smallest tentative distance
  Distance radius_min = kInfDist;  // smallest dist(v) + r_k(v) (radius rule)
};

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
          // An arc whose sum saturates (a dead arc at kInfDist) reaches
          // nothing, so it never enters the probe or sets a radius.
          const Distance nd = saturating_add(d, e.w);
          if (nd != kInfDist) heap.push(nd, e.dst);
        }
      }
      radii[vi] = radius;
    }
  });
  return radii;
}

SsspResult stepping_sssp(const Graph& g, VertexId source, SteppingKind kind,
                         Weight delta, std::uint64_t rho, RunContext& ctx,
                         const std::vector<Distance>* radii) {
  if (kind == SteppingKind::kRadius && radii == nullptr)
    throw std::invalid_argument("radius-stepping needs precomputed radii");
  RoundDriver rounds(g, source, ctx, /*direction_optimize=*/true);
  AtomicDistances& dist = rounds.dist;
  const std::vector<VertexId>& frontier = rounds.frontier;
  const auto p = static_cast<std::size_t>(ctx.team.size());
  PendingFlags pending(g.num_vertices());
  std::vector<CachePadded<Bounds>> local(p);
  // Written by thread 0 between barriers only.
  Distance threshold = kInfDist;
  Distance settled = 0;  // everything at or below this is final
  Xoshiro256 sample_rng(0x5a11e57ULL);

  const auto bounds_of = [&](const VertexId* lo, const VertexId* hi) {
    Bounds b;
    for (; lo != hi; ++lo) {
      const Distance d = dist.load(*lo);
      b.min = std::min(b.min, d);
      if (kind == SteppingKind::kRadius && d != kInfDist)
        b.radius_min =
            std::min(b.radius_min, saturating_add(d, (*radii)[*lo]));
    }
    return b;
  };
  // The extract rule: a round processes the frontier vertices at or below
  // the returned threshold and defers the rest.
  const auto threshold_of = [&](const Bounds& b,
                                const std::vector<VertexId>& f) -> Distance {
    if (kind == SteppingKind::kDeltaStar)
      return b.min >= kInfDist - delta ? kInfDist : b.min + delta;
    // Progress guarantee: at least the minimum-distance vertex passes.
    if (kind == SteppingKind::kRadius) return std::max(b.radius_min, b.min);
    if (f.size() <= rho) return kInfDist;  // whole frontier fits in one batch
    // Estimate the rho-th smallest frontier distance from a sample.
    Distance sample[kSampleSize];
    for (Distance& s : sample)
      s = dist.load(f[sample_rng.next_below(f.size())]);
    std::sort(sample, sample + kSampleSize);
    const auto idx = static_cast<std::size_t>(std::min<std::uint64_t>(
        kSampleSize - 1, kSampleSize * rho / f.size()));
    return std::max(sample[idx], b.min);
  };

  return rounds.run([&](int tid, obs::MetricsShard& my) {
    // Next-frontier insert, once per vertex per round (the dedup flags).
    const auto enqueue = [&](VertexId v) {
      if (pending.mark(v)) rounds.bag.insert(tid, v);
    };
    // Processes u if it is within threshold `t`, else defers it; deferred
    // and improved vertices go to `push`, which dedups like enqueue.
    const auto visit = [&](VertexId u, Distance t, auto&& push) {
      pending.clear(u);
      const Distance du = dist.load(u);
      if (du > t) {
        push(u);
        return;
      }
      my.inc(obs::CounterId::kVerticesProcessed);
      rounds.relax(my, u, du, [&](VertexId v, Distance) { push(v); });
    };

    do {
      // --- Phase 1: the frontier bounds, scanned cooperatively; thread 0
      // applies the rule.
      const std::size_t chunk = (frontier.size() + p - 1) / p;
      const std::size_t lo =
          std::min(frontier.size(), chunk * static_cast<std::size_t>(tid));
      const std::size_t hi = std::min(frontier.size(), lo + chunk);
      local[static_cast<std::size_t>(tid)].value =
          bounds_of(frontier.data() + lo, frontier.data() + hi);
      rounds.barrier.wait(tid);
      if (tid == 0) {
        Bounds b;
        for (const auto& l : local) {
          b.min = std::min(b.min, l.value.min);
          b.radius_min = std::min(b.radius_min, l.value.radius_min);
        }
        // Settled-bound invariant (non-negative weights): every vertex with
        // distance <= the current frontier minimum is final — any improving
        // path would have to pass through a frontier vertex of distance
        // >= the minimum. The round *threshold* is NOT a settled bound
        // (vertices in (min, threshold] may still improve), so pull rounds
        // key off the minimum.
        if (b.min != kInfDist) settled = std::max(settled, b.min);
        threshold = threshold_of(b, frontier);
      }
      rounds.barrier.wait(tid);

      // --- Phase 2: process.
      if (!frontier.empty() && frontier.size() <= kSparseLimit) {
        // Super-sparse rounds: thread 0 runs threshold rounds alone until
        // the frontier grows, skipping all parallel machinery — the
        // optimization that keeps Δ*/ρ-stepping competitive on road graphs.
        // Each one is a round like any other for the counters and hooks.
        if (tid == 0) {
          std::vector<VertexId> seq(frontier.begin(), frontier.end());
          std::vector<VertexId> next;
          while (!seq.empty() && seq.size() <= kSparseLimit) {
            const Distance t = threshold_of(
                bounds_of(seq.data(), seq.data() + seq.size()), seq);
            next.clear();
            for (const VertexId u : seq) {
              visit(u, t, [&](VertexId v) {
                if (pending.mark(v)) next.push_back(v);
              });
            }
            seq.swap(next);
            if (rounds.count_round(next.size(), seq.size())) break;
          }
          // Hand any remainder (still flagged) back to the parallel path.
          for (const VertexId u : seq) rounds.bag.insert(tid, u);
        }
      } else if (rounds.pull_round()) {
        // Frontier vertices above the threshold are deferred; the rest are
        // consumed (their out-edges are covered by the pulls below).
        rounds.claim([&](VertexId u) {
          pending.clear(u);
          if (dist.load(u) > threshold) enqueue(u);
        });
        rounds.barrier.wait(tid);
        rounds.pull(my, settled, [&](VertexId v, Distance) { enqueue(v); });
      } else {
        rounds.claim([&](VertexId u) { visit(u, threshold, enqueue); });
      }
    } while (rounds.end_round(tid));
  });
}

}  // namespace wasp
