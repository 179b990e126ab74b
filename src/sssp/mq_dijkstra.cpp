#include "sssp/mq_dijkstra.hpp"

#include <atomic>
#include <thread>

#include "concurrent/multiqueue.hpp"
#include "support/prefetch.hpp"
#include "support/thread_team.hpp"
#include "support/timer.hpp"
#include "verify/checked_atomic.hpp"

namespace wasp {

SsspResult mq_dijkstra(const Graph& g, VertexId source, int c, int stickiness,
                       int buffer_size, std::uint64_t seed, RunContext& ctx) {
  using CId = obs::CounterId;
  const int p = ctx.team.size();
  AtomicDistances& dist = ctx.distances();
  dist.store(source, 0);

  MultiQueue::Config config;
  config.threads = p;
  config.c = c;
  config.stickiness = stickiness;
  config.buffer_size = buffer_size;
  config.seed = seed;
  MultiQueue mq(config);
  mq.push(0, 0, source);
  mq.flush(0);

  // Threads currently holding popped work; termination needs the queue empty
  // AND nobody mid-processing (a processor may push more work).
  verify::atomic<int> busy{0};

  const std::uint32_t lookahead = ctx.prefetch_lookahead;

  Timer timer;
  ctx.team.run([&](int tid) {
    obs::MetricsShard& my = ctx.metrics.shard(tid);
    std::uint64_t progress = 0;
    for (;;) {
      // Cancellation point (async: each thread leaves independently; pending
      // queue entries are simply abandoned with the run-local MultiQueue).
      if (ctx.stop_requested()) break;
      Distance d = 0;
      VertexId u = 0;
      // Raise `busy` before popping: a thread that pops the queue's last
      // element decrements the size counter after this increment, so any
      // thread observing size == 0 also observes busy > 0 and cannot
      // terminate while work is in flight. acq_rel: the increment/decrement
      // pair orders each pop's pushes before a scanner's acquire read.
      busy.fetch_add(1, std::memory_order_acq_rel);
      if (mq.try_pop(tid, d, u)) {
        // Stale check: a better path was found after this entry was pushed.
        if (d != dist.load(u)) my.inc(CId::kStaleSkips);
        if (d == dist.load(u)) {
          my.inc(CId::kVerticesProcessed);
          ++progress;
          if ((progress & 0xFFFu) == 0) {
            if (ctx.observer != nullptr) ctx.observer->on_progress(tid, progress);
            // Deadline poll at the observer cadence; a fired deadline
            // self-cancels and the loop-top poll exits.
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
              mq.push(tid, nd, e.dst);
            }
          }
          if (lookahead != 0 && deg > lookahead)
            my.inc(CId::kPrefetchIssued, deg - lookahead);
        }
        mq.flush(tid);
        // acq_rel: the flushed pushes are ordered before this drop, so a
        // scanner reading busy == 0 (acquire) also sees the new entries.
        busy.fetch_sub(1, std::memory_order_acq_rel);
        continue;
      }
      busy.fetch_sub(1, std::memory_order_acq_rel);  // acq_rel: as above
      my.inc(CId::kTerminationScans);
      // Idle scans also check the deadline (a starved thread may otherwise
      // only spin on the flag while peers keep the queue non-empty).
      (void)ctx.poll_cancel();
      // Acquire: pairs with the acq_rel drops so in-flight pushes are seen.
      if (mq.size_estimate() == 0 && busy.load(std::memory_order_acquire) == 0) {
        if (ctx.observer != nullptr) ctx.observer->on_termination(tid);
        break;
      }
      std::this_thread::yield();
    }
  });

  const double seconds = timer.seconds();
  for (int t = 0; t < p; ++t)
    ctx.metrics.shard(0).inc(CId::kQueueOpNs, mq.queue_op_ns(t));
  SsspResult result;
  finalize_result(ctx, seconds, result);
  result.dist = dist.snapshot();
  return result;
}

}  // namespace wasp
