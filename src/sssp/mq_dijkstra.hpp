// Parallel Dijkstra over a relaxed concurrent priority queue (paper §2, §3):
// threads independently pop approximately-minimal (distance, vertex) pairs,
// skip stale ones, relax out-edges, and push improved vertices back. The
// queue is the MultiQueue, the paper's baseline, and the loop is queue_sssp
// in sssp/async_loop.hpp; its locked-operation time is surfaced in the
// stats (Figure 2's breakdown).
#pragma once

#include "graph/graph.hpp"
#include "sssp/common.hpp"
#include "support/thread_team.hpp"

namespace wasp {

/// Runs MultiQueue-based parallel Dijkstra. `c`, `stickiness` and
/// `buffer_size` mirror the paper's MultiQueue configuration (c = 2, b = 16,
/// stickiness tuned per graph).
SsspResult mq_dijkstra(const Graph& g, VertexId source, int c, int stickiness,
                       int buffer_size, std::uint64_t seed, RunContext& ctx);

}  // namespace wasp
