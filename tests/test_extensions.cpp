// Tests for the Stealing MultiQueue (SMQ) extension scheduler.
#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/solver.hpp"
#include "sssp/validate.hpp"

namespace wasp {
namespace {

TEST(SmqDijkstra, MatchesDijkstraAcrossGraphs) {
  for (const int threads : {1, 4}) {
    const Graph g = gen::rmat(11, 16384, 0.57, 0.19, 0.19, WeightScheme::gap(),
                              15, true);
    const VertexId src = pick_source_in_largest_component(g, 3);
    SsspOptions options;
    options.algo = Algorithm::kSmqDijkstra;
    options.threads = threads;
    const SsspResult r = Solver(options).solve(g, src);
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
    const SsspResult r = Solver(options).solve(g, src);
    std::string msg;
    EXPECT_TRUE(validate_sssp(g, src, r.dist, &msg)) << kind << ": " << msg;
    EXPECT_EQ(r.dist, dijkstra(g, src).dist) << kind;
  }
}

TEST(SmqDijkstra, ParsesAlgorithmName) {
  EXPECT_EQ(parse_algorithm("smq"), Algorithm::kSmqDijkstra);
  EXPECT_STREQ(to_string(Algorithm::kSmqDijkstra), "smq");
}

}  // namespace
}  // namespace wasp
