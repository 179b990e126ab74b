#include "sssp/bellman_ford.hpp"

#include <atomic>

#include "concurrent/frontier_bag.hpp"
#include "support/spin_barrier.hpp"
#include "support/thread_team.hpp"
#include "support/timer.hpp"
#include "verify/checked_atomic.hpp"

namespace wasp {

SsspResult bellman_ford(const Graph& g, VertexId source, RunContext& ctx) {
  using CId = obs::CounterId;
  const int p = ctx.team.size();
  AtomicDistances& dist = ctx.distances();
  dist.store(source, 0);

  std::vector<VertexId> frontier{source};
  FrontierBag next(p);
  SpinBarrier barrier(p);
  // Deduplicates frontier insertions within a round: a vertex improved many
  // times per round is still processed once next round.
  std::vector<verify::atomic<std::uint8_t>> in_next(g.num_vertices());
  // Relaxed init: precedes the team launch, which publishes the vector.
  for (auto& f : in_next) f.store(0, std::memory_order_relaxed);
  verify::atomic<std::size_t> cursor{0};
  std::uint64_t rounds = 0;
  bool cancelled = false;  // written by tid 0 pre-barrier, read post-barrier

  Timer timer;
  ctx.team.run([&](int tid) {
    obs::MetricsShard& my = ctx.metrics.shard(tid);
    for (;;) {
      // Dynamic claim over the current frontier.
      for (;;) {
        // Cancellation point: drop unclaimed entries; the round decision
        // below makes every thread leave at the same barrier.
        if (ctx.stop_requested()) break;
        // Relaxed ticket: the index itself is the only payload, and the
        // frontier contents were published by the round barrier.
        const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= frontier.size()) break;
        const VertexId u = frontier[i];
        // acq_rel exchanges on the dedup flag pair with relax_to's release:
        // either the updater sees our cleared flag and re-inserts u, or we
        // synchronize with its flag write and read the improved distance.
        in_next[u].exchange(0, std::memory_order_acq_rel);
        const Distance du = dist.load(u);
        for (const WEdge& e : g.out_neighbors(u)) {
          my.inc(CId::kRelaxations);
          if (dist.relax_to(e.dst, saturating_add(du, e.w))) {
            my.inc(CId::kUpdates);
            // acq_rel: same dedup-flag pairing as the clear above.
            if (in_next[e.dst].exchange(1, std::memory_order_acq_rel) == 0)
              next.insert(tid, e.dst);
          }
        }
      }
      barrier.wait(tid);
      if (tid == 0) {
        const std::size_t processed = frontier.size();
        const std::size_t total = next.compute_offsets();
        frontier.resize(total);
        // Relaxed: the barrier below publishes the reset to the team.
        cursor.store(0, std::memory_order_relaxed);
        // Round-top deadline/cancel poll (tid 0 only, so all threads agree).
        cancelled = ctx.poll_cancel();
        ++rounds;
        my.observe(obs::HistId::kRoundFrontier, processed);
        obs::trace_instant(ctx.trace, tid, obs::EventKind::kRoundTransition,
                           total);
        if (ctx.observer != nullptr) ctx.observer->on_round(rounds, processed);
      }
      barrier.wait(tid);
      if (frontier.empty() || cancelled) break;
      next.copy_out_and_clear(tid, frontier.data());
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
