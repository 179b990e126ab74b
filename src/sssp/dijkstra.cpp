#include "sssp/dijkstra.hpp"

#include "concurrent/dary_heap.hpp"
#include "support/timer.hpp"

namespace wasp {

SsspResult dijkstra(const Graph& g, VertexId source) {
  Timer timer;
  SsspResult result;
  result.dist.assign(g.num_vertices(), kInfDist);
  DaryHeap<Distance, VertexId, 4> heap;
  heap.reserve(1024);

  result.dist[source] = 0;
  heap.push(0, source);
  std::uint64_t relaxations = 0;
  std::uint64_t processed = 0;
  while (!heap.empty()) {
    const auto [d, u] = heap.pop();
    if (d != result.dist[u]) continue;  // stale entry (lazy deletion)
    ++processed;
    for (const WEdge& e : g.out_neighbors(u)) {
      ++relaxations;
      const Distance candidate = saturating_add(d, e.w);
      if (candidate < result.dist[e.dst]) {
        result.dist[e.dst] = candidate;
        heap.push(candidate, e.dst);
      }
    }
  }
  // The sequential reference still reports through the metrics pipeline so
  // every SsspResult carries a snapshot, whatever the algorithm.
  obs::MetricsRegistry metrics(1);
  obs::MetricsShard& shard = metrics.shard(0);
  shard.inc(obs::CounterId::kRelaxations, relaxations);
  shard.inc(obs::CounterId::kVerticesProcessed, processed);
  metrics.set_elapsed_seconds(timer.seconds());
  result.metrics = metrics.snapshot();
  return result;
}

}  // namespace wasp
