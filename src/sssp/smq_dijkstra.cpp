#include "sssp/smq_dijkstra.hpp"

#include <atomic>
#include <thread>

#include "concurrent/stealing_multiqueue.hpp"
#include "support/prefetch.hpp"
#include "support/thread_team.hpp"
#include "support/timer.hpp"
#include "verify/checked_atomic.hpp"

namespace wasp {

SsspResult smq_dijkstra(const Graph& g, VertexId source, int steal_batch,
                        std::uint64_t seed, RunContext& ctx) {
  using CId = obs::CounterId;
  const int p = ctx.team.size();
  AtomicDistances& dist = ctx.distances();
  dist.store(source, 0);

  StealingMultiQueue::Config config;
  config.threads = p;
  config.steal_batch = steal_batch;
  config.seed = seed;
  StealingMultiQueue smq(config);
  smq.push(0, 0, source);

  verify::atomic<int> busy{0};
  const std::uint32_t lookahead = ctx.prefetch_lookahead;

  Timer timer;
  ctx.team.run([&](int tid) {
    chaos::ScopedInstall chaos_guard(ctx.chaos, tid);
    obs::MetricsShard& my = ctx.metrics.shard(tid);
    std::uint64_t progress = 0;
    for (;;) {
      // Cancellation point (async: each thread leaves independently;
      // pending entries are abandoned with the run-local queue).
      if (ctx.stop_requested()) break;
      Distance d = 0;
      VertexId u = 0;
      // Same visibility protocol as mq_dijkstra: busy is raised before the
      // pop, so size==0 observed by others implies busy>0 while any element
      // is mid-processing.
      busy.fetch_add(1, std::memory_order_acq_rel);
      if (smq.try_pop(tid, d, u)) {
        if (d != dist.load(u)) my.inc(CId::kStaleSkips);
        if (d == dist.load(u)) {  // stale check
          my.inc(CId::kVerticesProcessed);
          ++progress;
          if ((progress & 0xFFFu) == 0) {
            if (ctx.observer != nullptr) ctx.observer->on_progress(tid, progress);
            // Deadline poll at the observer cadence (see mq_dijkstra).
            (void)ctx.poll_cancel();
          }
          // Indexed drain so edge j can prefetch the dist entry of edge
          // j + lookahead's target (the only data-dependent miss here).
          const WEdge* edges = g.edge_data() + g.edge_offset(u);
          const std::uint32_t deg = g.out_degree(u);
          for (std::uint32_t j = 0; j < deg; ++j) {
            if (lookahead != 0 && j + lookahead < deg)
              prefetch_read(dist.prefetch_addr(edges[j + lookahead].dst));
            const WEdge& e = edges[j];
            my.inc(CId::kRelaxations);
            const Distance nd = saturating_add(d, e.w);
            if (dist.relax_to(e.dst, nd)) {
              my.inc(CId::kUpdates);
              smq.push(tid, nd, e.dst);
            }
          }
          if (lookahead != 0 && deg > lookahead)
            my.inc(CId::kPrefetchIssued, deg - lookahead);
        }
        // acq_rel: orders this pop's pushes before the drop, so a scanner
        // reading busy == 0 (acquire) also sees the new entries.
        busy.fetch_sub(1, std::memory_order_acq_rel);
        continue;
      }
      busy.fetch_sub(1, std::memory_order_acq_rel);  // acq_rel: as above
      my.inc(CId::kTerminationScans);
      // Idle scans also check the deadline (see mq_dijkstra).
      (void)ctx.poll_cancel();
      // Acquire: pairs with the acq_rel drops so in-flight pushes are seen.
      if (smq.size_estimate() == 0 && busy.load(std::memory_order_acquire) == 0) {
        if (ctx.observer != nullptr) ctx.observer->on_termination(tid);
        break;
      }
      std::this_thread::yield();
    }
  });

  SsspResult result;
  finalize_result(ctx, timer.seconds(), result);
  result.dist = dist.snapshot();
  return result;
}

}  // namespace wasp
