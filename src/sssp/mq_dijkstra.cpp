#include "sssp/mq_dijkstra.hpp"

#include "concurrent/multiqueue.hpp"
#include "concurrent/stealing_multiqueue.hpp"
#include "sssp/async_loop.hpp"

namespace wasp {

SsspResult mq_dijkstra(const Graph& g, VertexId source, int c, int stickiness,
                       int buffer_size, std::uint64_t seed, RunContext& ctx) {
  MultiQueue::Config config;
  config.threads = ctx.team.size();
  config.c = c;
  config.stickiness = stickiness;
  config.buffer_size = buffer_size;
  config.seed = seed;
  MultiQueue queue(config);
  return queue_sssp(g, source, queue, ctx);
}

SsspResult smq_dijkstra(const Graph& g, VertexId source, int steal_batch,
                        std::uint64_t seed, RunContext& ctx) {
  StealingMultiQueue::Config config;
  config.threads = ctx.team.size();
  config.steal_batch = steal_batch;
  config.seed = seed;
  StealingMultiQueue queue(config);
  return queue_sssp(g, source, queue, ctx);
}

}  // namespace wasp
