// The shared skeleton of the asynchronous priority-queue baselines:
// MultiQueue Dijkstra and Galois/OBIM. Their workers run without rounds:
// pop a vertex, relax its edges, push what improved, and leave once no
// vertex is queued or being processed anywhere.
//
//  * QuiescenceDetector proves that last condition without a shared write
//    per vertex (docs/CONCURRENCY.md, "Quiescence detector").
//  * run_async() runs a worker on every team thread under the verify
//    scheduler guard; AsyncWorker holds the per-vertex polls and
//    the idle step every worker shares.
//  * queue_sssp() is the whole loop of Dijkstra over the MultiQueue; OBIM
//    keeps its own bag rule and uses only the detector and run_async().
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "concurrent/multiqueue.hpp"
#include "graph/graph.hpp"
#include "sssp/common.hpp"
#include "support/padded.hpp"
#include "support/prefetch.hpp"
#include "support/thread_team.hpp"
#include "support/timer.hpp"
#include "verify/checked_atomic.hpp"
#include "verify/scheduler.hpp"

namespace wasp {

/// Counts every vertex pushed and every popped vertex finished, one pair of
/// monotone counters per worker, each written only by its owner. A worker
/// calls pushed() before a vertex can reach another worker and done() after
/// the pushes of its pop are counted. The run starts with the source pushed
/// by worker 0.
class QuiescenceDetector {
 public:
  explicit QuiescenceDetector(int workers)
      : counts_(static_cast<std::size_t>(workers)) {
    // Relaxed: pre-run seeding; the team launch publishes it.
    counts_[0].value.pushed.store(1, std::memory_order_relaxed);
  }

  void pushed(int tid) {
    auto& count = counts_[static_cast<std::size_t>(tid)].value.pushed;
    // Relaxed: only the owner writes, so it reads its own last store.
    const std::uint64_t next = count.load(std::memory_order_relaxed) + 1;
    // Relaxed: a scanner reaches this count through the release in done()
    // of whoever pops the vertex; the queue's lock orders this push before
    // that pop.
    count.store(next, std::memory_order_relaxed);
  }

  void done(int tid) {
    auto& count = counts_[static_cast<std::size_t>(tid)].value.done;
    // Relaxed: only the owner writes, so it reads its own last store.
    const std::uint64_t next = count.load(std::memory_order_relaxed) + 1;
    // Release: a scanner that acquires this count also sees every push
    // made before it, by this worker and by the pushers of what it popped.
    count.store(next, std::memory_order_release);
  }

  /// True when every vertex ever pushed is done, so none can be pushed
  /// again. Collects every `done` count, then every `pushed` count: each
  /// push behind a counted `done` is counted too, so equal sums mean the
  /// same set of vertices.
  [[nodiscard]] bool quiescent() const {
    std::uint64_t done = 0;
    std::uint64_t pushed = 0;
    // Acquire: pairs with done()'s release, so the pushed collect below
    // sees every push ordered before a counted done.
    for (const auto& c : counts_)
      done += c.value.done.load(std::memory_order_acquire);
    // Relaxed: the acquire collect above already ordered what must be seen.
    for (const auto& c : counts_)
      pushed += c.value.pushed.load(std::memory_order_relaxed);
    return pushed == done;
  }

 private:
  struct Counts {
    verify::atomic<std::uint64_t> pushed{0};
    verify::atomic<std::uint64_t> done{0};
  };
  std::vector<CachePadded<Counts>> counts_;
};

/// One worker of an asynchronous run: its metrics shard and the polls every
/// asynchronous loop shares.
struct AsyncWorker {
  int tid;
  RunContext& ctx;
  obs::MetricsShard& shard;
  std::uint64_t progress = 0;

  /// Counts a vertex that passed the stale check. Every 4096th reports
  /// progress and polls the deadline; a fired deadline self-cancels and
  /// the loop's stop check exits.
  void processed() {
    shard.inc(obs::CounterId::kVerticesProcessed);
    if ((++progress & 0xFFFu) != 0) return;
    if (ctx.observer != nullptr) ctx.observer->on_progress(tid, progress);
    (void)ctx.poll_cancel();
  }

  /// The step of a worker that found no work. Polls the deadline too: a
  /// starved worker may otherwise only spin while peers hold all the work.
  /// True when the run is over.
  bool idle(const QuiescenceDetector& detector) {
    shard.inc(obs::CounterId::kTerminationScans);
    (void)ctx.poll_cancel();
    if (detector.quiescent()) {
      if (ctx.observer != nullptr) ctx.observer->on_termination(tid);
      return true;
    }
    std::this_thread::yield();
    return false;
  }
};

/// Runs worker(me) on every team thread; the answer is ctx.dist's buffer. A
/// worker returns when it finds the run quiescent or sees a stop request;
/// on a stop, queued work is abandoned with the run-local structures.
template <class Worker>
SsspResult run_async(RunContext& ctx, Worker&& worker) {
  Timer timer;
  ctx.team.run([&](int tid) {
    verify::ScopedSchedule schedule_guard(tid);
    AsyncWorker me{tid, ctx, ctx.metrics.shard(tid)};
    worker(me);
  });
  SsspResult result;
  finalize_result(ctx, timer.seconds(), result);
  return result;
}

/// Parallel Dijkstra over the MultiQueue: pop, skip stale entries, relax
/// with prefetch, push improvements. Every pop ends in flush(tid), so its
/// pushes reach the shared queues before the pop counts as done; each
/// worker's queue_op_ns(tid) is reported as kQueueOpNs.
inline SsspResult queue_sssp(const Graph& g, VertexId source,
                             MultiQueue& queue, RunContext& ctx) {
  using CId = obs::CounterId;
  AtomicDistances& dist = *ctx.dist;
  dist.store(source, 0);
  QuiescenceDetector detector(ctx.team.size());
  queue.push(0, 0, source);
  queue.flush(0);
  constexpr std::uint32_t lookahead = kPrefetchLookahead;

  return run_async(ctx, [&](AsyncWorker& me) {
    const int tid = me.tid;
    while (!ctx.stop_requested()) {
      Distance d = 0;
      VertexId u = 0;
      if (!queue.try_pop(tid, d, u)) {
        if (me.idle(detector)) break;
        continue;
      }
      if (d != dist.load(u)) {
        me.shard.inc(CId::kStaleSkips);
      } else {
        me.processed();
        // Indexed drain so edge j can prefetch the dist entry of edge
        // j + lookahead's target (the only data-dependent miss here).
        const WEdge* edges = g.edge_data() + g.edge_offset(u);
        const std::uint32_t deg = g.out_degree(u);
        for (std::uint32_t j = 0; j < deg; ++j) {
          if (j + lookahead < deg)
            prefetch_read(dist.prefetch_addr(edges[j + lookahead].dst));
          const WEdge& e = edges[j];
          me.shard.inc(CId::kRelaxations);
          const Distance nd = saturating_add(d, e.w);
          if (dist.relax_to(e.dst, nd)) {
            me.shard.inc(CId::kUpdates);
            detector.pushed(tid);
            queue.push(tid, nd, e.dst);
          }
        }
        if (deg > lookahead)
          me.shard.inc(CId::kPrefetchIssued, deg - lookahead);
      }
      queue.flush(tid);
      detector.done(tid);
    }
    me.shard.inc(CId::kQueueOpNs, queue.queue_op_ns(tid));
  });
}

}  // namespace wasp
