// The round skeleton of the barrier baselines: GAP Δ-stepping, Julienne,
// Δ*-/ρ-/radius-stepping and Bellman-Ford. Dong et al. (PAPERS.md) show
// that these differ mainly in their extract rule; RoundDriver is the rest.
// Every baseline's worker has the same shape:
//
//   do {
//     rounds.claim(visit);   // or rounds.pull(...), plus the own rule
//   } while (rounds.end_round(tid, select));
//
// end_round() is the one place a round ends. After a barrier, thread 0
// alone lets the algorithm pick each thread's next-frontier segment
// (`select`; by default the bag's insert segments), sizes the gather,
// counts the round (++rounds, kRoundFrontier, trace, on_round), polls the
// deadline and decides whether the run is over. After a second barrier
// every thread copies its segment into the shared frontier; a third
// publishes it. The push/pull test rides the copy: each thread sums its
// segment's degrees, so every thread reads the same decision afterwards
// without another barrier.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "concurrent/frontier_bag.hpp"
#include "sssp/common.hpp"
#include "support/padded.hpp"
#include "support/prefetch.hpp"
#include "support/spin_barrier.hpp"
#include "support/thread_team.hpp"
#include "support/timer.hpp"
#include "verify/checked_atomic.hpp"
#include "verify/scheduler.hpp"

namespace wasp {

/// Per-vertex "already in the next frontier" flags: a vertex improved many
/// times in one round is gathered once. Bellman-Ford's rule, which the
/// threshold steppers share.
class PendingFlags {
 public:
  explicit PendingFlags(std::size_t n) : flags_(n) {
    // Relaxed init: precedes the team launch, which publishes the vector.
    for (auto& f : flags_) f.store(0, std::memory_order_relaxed);
  }

  // acq_rel on both exchanges pairs with relax_to's release: either the
  // updater sees our cleared flag and re-inserts v, or we synchronize with
  // its flag write and read the improved distance.
  void clear(VertexId v) { flags_[v].exchange(0, std::memory_order_acq_rel); }
  /// True when v was not pending; the caller then inserts it.
  bool mark(VertexId v) {
    return flags_[v].exchange(1, std::memory_order_acq_rel) == 0;
  }

 private:
  std::vector<verify::atomic<std::uint8_t>> flags_;
};

class RoundDriver {
 public:
  /// Frontier entries (or pull vertices) per cursor ticket. One contended
  /// fetch_add per vertex was the baselines' dominant multi-thread cost
  /// (docs/PERFORMANCE.md).
  static constexpr std::size_t kClaimBlock = 64;
  /// A round pulls when its frontier's degree sum exceeds |E| / this.
  static constexpr std::uint64_t kPullDivisor = 20;

  /// Seeds dist[source] = 0 and the frontier {source}. Pull rounds are
  /// considered only when `direction_optimize` is set and g is undirected
  /// (a pull reads out-edges as in-edges).
  RoundDriver(const Graph& graph, VertexId source, RunContext& run,
              bool direction_optimize = false)
      : g(graph), ctx(run), dist(run.distances()), frontier{source},
        bag(run.team.size()), barrier(run.team.size()),
        pull_test_(direction_optimize && graph.is_undirected()),
        degrees_(static_cast<std::size_t>(run.team.size())) {
    dist.store(source, 0);
  }

  /// Runs worker(tid, shard) on every team thread under the verify
  /// scheduler and chaos guards, then records the rounds and barrier time
  /// and snapshots the distances.
  template <class Worker>
  SsspResult run(Worker&& worker) {
    Timer timer;
    ctx.team.run([&](int tid) {
      verify::ScopedSchedule schedule_guard(tid);
      chaos::ScopedInstall chaos_guard(ctx.chaos, tid);
      worker(tid, ctx.metrics.shard(tid));
    });
    const double seconds = timer.seconds();
    ctx.metrics.shard(0).inc(obs::CounterId::kRounds, rounds_);
    ctx.metrics.shard(0).inc(obs::CounterId::kBarrierNs,
                             barrier.total_wait_ns());
    SsspResult result;
    finalize_result(ctx, seconds, result);
    result.dist = dist.snapshot();
    return result;
  }

  /// Calls visit(u) for every frontier vertex this thread claims.
  template <class F>
  void claim(F&& visit) {
    claim_blocks(cursor_, frontier.size(),
                 [&](std::size_t i) { visit(frontier[i]); });
  }

  /// True when this round should pull (same answer on every thread).
  [[nodiscard]] bool pull_round() const {
    if (!pull_test_) return false;
    std::uint64_t degree_sum = 0;
    for (const auto& d : degrees_) degree_sum += d.value;
    return degree_sum > g.num_edges() / kPullDivisor;
  }

  /// One pull round: every vertex above `settled` takes its best path
  /// through a neighbour; on_update(v, d) gets each improvement. Parallel
  /// over destinations, so high-degree sources split across threads.
  template <class F>
  void pull(obs::MetricsShard& my, Distance settled, F&& on_update) {
    claim_blocks(pull_cursor_, g.num_vertices(), [&](std::size_t vi) {
      const auto v = static_cast<VertexId>(vi);
      Distance best = dist.load(v);
      if (best <= settled) return;
      for (const WEdge& e : g.out_neighbors(v)) {
        my.inc(obs::CounterId::kRelaxations);
        best = std::min(best, saturating_add(dist.load(e.dst), e.w));
      }
      if (dist.relax_to(v, best)) {
        my.inc(obs::CounterId::kUpdates);
        on_update(v, best);
      }
    });
  }

  /// Relaxes u's out-edges from du; on_update(v, d) gets each improvement.
  template <class F>
  void relax(obs::MetricsShard& my, VertexId u, Distance du, F&& on_update) {
    const std::uint32_t ahead = ctx.prefetch_lookahead;
    // Indexed drain so edge j can prefetch the dist entry of edge j +
    // ahead's target (the only data-dependent miss here).
    const WEdge* edges = g.edge_data() + g.edge_offset(u);
    const std::uint32_t deg = g.out_degree(u);
    for (std::uint32_t j = 0; j < deg; ++j) {
      if (ahead != 0 && j + ahead < deg)
        prefetch_read(dist.prefetch_addr(edges[j + ahead].dst));
      my.inc(obs::CounterId::kRelaxations);
      const Distance nd = saturating_add(du, edges[j].w);
      if (dist.relax_to(edges[j].dst, nd)) {
        my.inc(obs::CounterId::kUpdates);
        on_update(edges[j].dst, nd);
      }
    }
    if (ahead != 0 && deg > ahead)
      my.inc(obs::CounterId::kPrefetchIssued, deg - ahead);
  }

  /// The Δ-bucket visit (GAP, Julienne): skips u when a better path already
  /// moved it below `lower`, the current bucket's floor (Algorithm 1 line
  /// 20), and relaxes it otherwise.
  template <class F>
  void relax_if_fresh(obs::MetricsShard& my, VertexId u, std::uint64_t lower,
                      F&& on_update) {
    const Distance du = dist.load(u);
    if (du < lower) {
      my.inc(obs::CounterId::kStaleSkips);
      return;
    }
    my.inc(obs::CounterId::kVerticesProcessed);
    relax(my, u, du, on_update);
  }

  /// Ends the round (every thread calls it after processing). Thread 0
  /// runs `select()` alone: it may point threads' gathers at their own
  /// staged segments (bag.select) and returns true when work remains
  /// outside them. Returns false on every thread when the run is over: no
  /// next frontier and nothing pending, or cancelled.
  template <class Select>
  bool end_round(int tid, Select&& select) {
    barrier.wait(tid);
    if (tid == 0) {
      const bool pending = select();
      const std::size_t total = bag.compute_offsets();
      finished_ = count_round(frontier.size(), total) ||
                  (total == 0 && !pending);
      frontier.resize(total);
      // Relaxed: the barrier below publishes the resets to the team.
      cursor_.store(0, std::memory_order_relaxed);
      pull_cursor_.store(0, std::memory_order_relaxed);
    }
    barrier.wait(tid);
    if (finished_) return false;
    const auto copied = bag.copy_out_and_clear(tid, frontier.data());
    if (pull_test_) {
      std::uint64_t degree_sum = 0;
      for (const VertexId v : copied) degree_sum += g.out_degree(v);
      degrees_[static_cast<std::size_t>(tid)].value = degree_sum;
    }
    barrier.wait(tid);
    return true;
  }
  bool end_round(int tid) {
    return end_round(tid, [] { return false; });
  }

  /// Counts one round on thread 0: `processed` frontier entries gave a next
  /// frontier of `next`. Returns true when the run is cancelled (the
  /// round-top deadline poll, on one thread so all agree). The steppers'
  /// super-sparse rounds call it directly.
  bool count_round(std::size_t processed, std::size_t next) {
    ++rounds_;
    ctx.metrics.shard(0).observe(obs::HistId::kRoundFrontier, processed);
    obs::trace_instant(ctx.trace, 0, obs::EventKind::kRoundTransition, next);
    if (ctx.observer != nullptr) ctx.observer->on_round(rounds_, processed);
    return ctx.poll_cancel();
  }

  const Graph& g;
  RunContext& ctx;
  AtomicDistances& dist;
  /// This round's frontier; read-only between round ends.
  std::vector<VertexId> frontier;
  /// Next-frontier segments; insert(tid, v) from inside a round.
  FrontierBag bag;
  SpinBarrier barrier;

 private:
  template <class F>
  void claim_blocks(verify::atomic<std::size_t>& cursor, std::size_t n,
                    F&& f) {
    for (;;) {
      // Cancellation point: unclaimed blocks are dropped; end_round folds
      // the token into the shared decision, so all threads leave together.
      if (ctx.stop_requested()) return;
      // Relaxed ticket: the index is the only payload; the barrier that
      // ended the last round published the frontier and the reset.
      const std::size_t lo =
          cursor.fetch_add(kClaimBlock, std::memory_order_relaxed);
      if (lo >= n) return;
      const std::size_t hi = std::min(n, lo + kClaimBlock);
      for (std::size_t i = lo; i < hi; ++i) f(i);
    }
  }

  const bool pull_test_;
  verify::atomic<std::size_t> cursor_{0};
  verify::atomic<std::size_t> pull_cursor_{0};
  /// Degree sum of each thread's share of the frontier (pull test).
  std::vector<CachePadded<std::uint64_t>> degrees_;
  std::uint64_t rounds_ = 0;  // thread 0 only
  bool finished_ = false;     // written by thread 0 between barriers
};

}  // namespace wasp
