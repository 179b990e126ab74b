// Tests for the extension modules: pendant-tree contraction and the
// Stealing MultiQueue.
#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "graph/contraction.hpp"
#include "graph/generators.hpp"
#include "sssp/contracted.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/sssp.hpp"
#include "sssp/validate.hpp"

namespace wasp {
namespace {

// --- pendant-tree contraction ----------------------------------------------

TEST(Contraction, EliminatesStarLeavesAndStaysExact) {
  const Graph g = gen::star_hub(5000, 0.93, 0.01, WeightScheme::gap(), 9);
  const VertexId src = pick_source_in_largest_component(g, 2);
  const auto pc = PendantContraction::contract(g, src);
  // Most of the star graph is pendant.
  EXPECT_GT(pc.num_eliminated(), g.num_vertices() / 2);
  EXPECT_TRUE(pc.in_core(src));

  auto dist = dijkstra(pc.core(), src).dist;
  pc.expand(dist);
  EXPECT_EQ(dist, dijkstra(g, src).dist);
}

TEST(Contraction, EliminatesWholeTrees) {
  // A triangle core {0,1,2} with a 3-deep pendant path 2-3-4-5 and a
  // branching pendant tree at 0.
  const Graph g = GraphBuilder()
      .edges(8, {{0, 1, 1}, {1, 2, 1}, {0, 2, 1},  // core
                 {2, 3, 5}, {3, 4, 2}, {4, 5, 7},  // path
                 {0, 6, 4}, {6, 7, 3}})            // small tree
      .undirected()
      .build();
  const auto pc = PendantContraction::contract(g, 0);
  EXPECT_EQ(pc.num_eliminated(), 5u);  // vertices 3,4,5,6,7
  for (VertexId v : {3u, 4u, 5u, 6u, 7u}) EXPECT_FALSE(pc.in_core(v));
  for (VertexId v : {0u, 1u, 2u}) EXPECT_TRUE(pc.in_core(v));

  auto dist = dijkstra(pc.core(), 0).dist;
  pc.expand(dist);
  EXPECT_EQ(dist, dijkstra(g, 0).dist);
}

TEST(Contraction, SourceInsidePendantTreeIsPreserved) {
  // Path 0-1-2-3 attached to triangle {3,4,5}; source 0 is a leaf. The
  // whole chain 0-1-2 must survive so core SSSP from 0 is well-defined.
  const Graph g = GraphBuilder()
      .edges(6, {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 4, 1}, {4, 5, 1},
                 {3, 5, 1}})
      .undirected()
      .build();
  const auto pc = PendantContraction::contract(g, 0);
  EXPECT_TRUE(pc.in_core(0));
  EXPECT_TRUE(pc.in_core(1));
  EXPECT_TRUE(pc.in_core(2));
  auto dist = dijkstra(pc.core(), 0).dist;
  pc.expand(dist);
  EXPECT_EQ(dist, dijkstra(g, 0).dist);
}

TEST(Contraction, PureTreeContractsToSource) {
  // A path graph is one big pendant tree: everything except the kept vertex
  // collapses.
  const Graph g = gen::chain_forest(1, 50, WeightScheme::gap(), 11);
  const auto pc = PendantContraction::contract(g, 10);
  EXPECT_EQ(pc.num_eliminated(), g.num_vertices() - 1);
  auto dist = dijkstra(pc.core(), 10).dist;
  pc.expand(dist);
  EXPECT_EQ(dist, dijkstra(g, 10).dist);
}

TEST(Contraction, RejectsDirectedGraphs) {
  const Graph g = GraphBuilder().edges(2, {{0, 1, 1}}).build();
  EXPECT_THROW(PendantContraction::contract(g, 0), std::invalid_argument);
}

TEST(Contraction, RunSsspContractedMatchesPlain) {
  for (const auto seed : {1, 2, 3}) {
    const Graph g = gen::star_hub(4000, 0.9, 0.02, WeightScheme::gap(),
                                  static_cast<std::uint64_t>(seed));
    const VertexId src = pick_source_in_largest_component(g, 7);
    SsspOptions options;
    options.algo = Algorithm::kWasp;
    options.threads = 4;
    options.delta = 4;
    const auto contracted = run_sssp_contracted(g, src, options);
    EXPECT_GT(contracted.eliminated_vertices, 0u);
    EXPECT_EQ(contracted.result.dist, dijkstra(g, src).dist);
  }
}

TEST(Contraction, ExpandSaturatesInsteadOfWrapping) {
  // A pendant chain 0-1-2 hanging off the triangle 0-3-4: 10 + 4,294,967,290
  // passes kInfDist, so vertex 2 is unreachable, not at a wrapped 4.
  const Graph g = GraphBuilder()
                      .edges(5, {{0, 1, 10},
                                 {1, 2, kInfDist - 5},
                                 {0, 3, 1},
                                 {3, 4, 1},
                                 {4, 0, 1}})
                      .undirected(true)
                      .build();
  const std::vector<Distance> want = dijkstra(g, 0).dist;
  ASSERT_EQ(want[2], kInfDist);
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 2;
  const auto contracted = run_sssp_contracted(g, 0, options);
  EXPECT_EQ(contracted.eliminated_vertices, 2u);
  EXPECT_EQ(contracted.result.dist, want);
}

// --- Stealing MultiQueue ----------------------------------------------------

TEST(SmqDijkstra, MatchesDijkstraAcrossGraphs) {
  for (const int threads : {1, 4}) {
    const Graph g = gen::rmat(11, 16384, 0.57, 0.19, 0.19, WeightScheme::gap(),
                              15, true);
    const VertexId src = pick_source_in_largest_component(g, 3);
    SsspOptions options;
    options.algo = Algorithm::kSmqDijkstra;
    options.threads = threads;
    const SsspResult r = run_sssp(g, src, options);
    EXPECT_EQ(r.dist, dijkstra(g, src).dist) << "threads=" << threads;
  }
}

TEST(SmqDijkstra, GridAndStarStayCorrect) {
  for (const auto* kind : {"grid", "star"}) {
    const Graph g = std::string(kind) == "grid"
                        ? gen::grid(40, 40, WeightScheme::gap(), 21)
                        : gen::star_hub(3000, 0.93, 0.01, WeightScheme::gap(), 22);
    const VertexId src = pick_source_in_largest_component(g, 5);
    SsspOptions options;
    options.algo = Algorithm::kSmqDijkstra;
    options.threads = 6;
    options.smq.steal_batch = 4;
    const SsspResult r = run_sssp(g, src, options);
    std::string msg;
    EXPECT_TRUE(validate_sssp(g, src, r.dist, &msg)) << kind << ": " << msg;
    EXPECT_EQ(r.dist, dijkstra(g, src).dist) << kind;
  }
}

TEST(SmqDijkstra, ParsesAlgorithmName) {
  EXPECT_EQ(parse_algorithm("smq"), Algorithm::kSmqDijkstra);
  EXPECT_STREQ(algorithm_name(Algorithm::kSmqDijkstra), "smq");
}

// --- contraction + compressed interplay -------------------------------------

TEST(Contraction, GridHasNoPendantsButStaysExact) {
  // Grids are their own 2-core: contraction must be a no-op and still exact.
  const Graph g = gen::grid(20, 20, WeightScheme::gap(), 12);
  const auto pc = PendantContraction::contract(g, 0);
  EXPECT_EQ(pc.num_eliminated(), 0u);
  auto dist = dijkstra(pc.core(), 0).dist;
  pc.expand(dist);
  EXPECT_EQ(dist, dijkstra(g, 0).dist);
}

TEST(Contraction, UnreachablePendantTreesStayInfinite) {
  // Two components; the pendant path 3-4-5 hangs off the *other* component.
  const Graph g = GraphBuilder()
      .edges(6, {{0, 1, 1}, {1, 2, 1}, {0, 2, 1}, {3, 4, 2}, {4, 5, 2}})
      .undirected()
      .build();
  const auto pc = PendantContraction::contract(g, 0);
  auto dist = dijkstra(pc.core(), 0).dist;
  pc.expand(dist);
  EXPECT_EQ(dist[4], kInfDist);
  EXPECT_EQ(dist[5], kInfDist);
  EXPECT_EQ(dist, dijkstra(g, 0).dist);
}

}  // namespace
}  // namespace wasp
