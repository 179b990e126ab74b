// Adversarial Wasp stress on suite workloads: many tiny runs at high thread
// counts (the configuration most likely to expose a premature-termination
// race) and range-chunk draining at tiny theta. Every suite class against
// Dijkstra lives in test_differential.cpp.
#include <gtest/gtest.h>

#include <memory>

#include "graph/builder.hpp"
#include "graph/suite.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/solver.hpp"
#include "sssp/validate.hpp"
#include "support/numa.hpp"

namespace wasp {
namespace {

TEST(TerminationStress, ManyTinyRunsAtHighThreadCounts) {
  // Tiny graphs with many threads maximize the window for the
  // steal/terminate race: most workers never receive real work and spend
  // the whole run inside the termination protocol. A premature termination
  // shows up as an unreached vertex.
  const auto w = suite::make(suite::GraphClass::kUrand, 0.05, 9);
  const auto reference = dijkstra(w.graph, w.source);
  for (int run = 0; run < 30; ++run) {
    SsspOptions options;
    options.algo = Algorithm::kWasp;
    options.threads = 12;
    options.delta = 1 + (run % 7) * 9;
    options.seed = static_cast<std::uint64_t>(run);
    const SsspResult r = Solver(options).solve(w.graph, w.source);
    std::string message;
    ASSERT_TRUE(distances_equal(reference.dist, r.dist, &message))
        << "run " << run << ": " << message;
  }
}

TEST(RangeChunkStress, DecomposedNeighbourhoodsAreRelaxedExactlyOnce) {
  // A tiny theta splits almost every neighbourhood into range chunks. A
  // thief files the slices of a stolen chunk whose level is not its current
  // one in its local bucket list, so bucket heads are often range chunks: a
  // vertex appended to one would be drained with the slice's edge range.
  // theta = 2 also overlaps bidirectional relaxation (degree <= 8), whose
  // pull must not turn the vertex's pending slices stale. Both engines run
  // the same bucket code.
  const auto w = suite::make(suite::GraphClass::kKron, 0.1, 5);
  const auto reference = dijkstra(w.graph, w.source);
  for (const bool partitioned : {false, true}) {
    for (const std::uint32_t theta : {2u, 8u}) {
      SsspOptions options;
      options.algo = Algorithm::kWasp;
      options.threads = partitioned ? 6 : 4;
      options.delta = 1;
      options.wasp.theta = theta;
      if (partitioned) {
        // Three workers per fragment: a steal sweep needs two victims to
        // take chunks of two levels at once.
        options.wasp.topology = std::make_shared<const NumaTopology>(
            NumaTopology::synthetic(1, 2, 3));
        options.wasp.partition.enabled = true;
        options.wasp.partition.num_fragments = 2;
      }
      for (int run = 0; run < 40; ++run) {
        const SsspResult r = Solver(options).solve(w.graph, w.source);
        std::string message;
        ASSERT_TRUE(distances_equal(reference.dist, r.dist, &message))
            << (partitioned ? "partitioned" : "flat") << " theta " << theta
            << " run " << run << ": " << message;
      }
    }
  }
}

TEST(TerminationStress, ImmediateTerminationOnEdgelessGraph) {
  // All workers enter the termination protocol instantly; the run must end
  // (no livelock) with only the source settled.
  const Graph g = GraphBuilder().edges(64, {}).build();
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 8;
  const SsspResult r = Solver(options).solve(g, 7);
  EXPECT_EQ(r.dist[7], 0u);
  for (VertexId v = 0; v < 64; ++v) {
    if (v != 7) {
      EXPECT_EQ(r.dist[v], kInfDist);
    }
  }
}

}  // namespace
}  // namespace wasp
