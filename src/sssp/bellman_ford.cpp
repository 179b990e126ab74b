#include "sssp/bellman_ford.hpp"

#include "sssp/rounds.hpp"

namespace wasp {

SsspResult bellman_ford(const Graph& g, VertexId source, RunContext& ctx) {
  RoundDriver rounds(g, source, ctx);
  // The dedup rule: a vertex improved many times per round is still
  // processed once next round.
  PendingFlags pending(g.num_vertices());
  return rounds.run([&](int tid, obs::MetricsShard& my) {
    do {
      rounds.claim([&](VertexId u) {
        pending.clear(u);
        rounds.relax(my, u, rounds.dist.load(u), [&](VertexId v, Distance) {
          if (pending.mark(v)) rounds.bag.insert(tid, v);
        });
      });
    } while (rounds.end_round(tid));
  });
}

}  // namespace wasp
