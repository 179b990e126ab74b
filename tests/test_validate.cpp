// Tests for the validation helpers themselves: they must accept correct
// distance vectors and reject each class of corruption.
#include <gtest/gtest.h>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/validate.hpp"

namespace wasp {
namespace {

Graph small_graph() {
  return GraphBuilder()
      .edges(5, {{0, 1, 2}, {0, 2, 7}, {1, 2, 3}, {2, 3, 1}})
      .build();
}

TEST(DistancesEqual, AcceptsIdentical) {
  std::string msg;
  EXPECT_TRUE(distances_equal({1, 2, 3}, {1, 2, 3}, &msg));
}

TEST(DistancesEqual, RejectsMismatchWithLocation) {
  std::string msg;
  EXPECT_FALSE(distances_equal({1, 2, 3}, {1, 9, 3}, &msg));
  EXPECT_NE(msg.find("vertex 1"), std::string::npos);
}

TEST(DistancesEqual, RejectsSizeMismatch) {
  std::string msg;
  EXPECT_FALSE(distances_equal({1, 2}, {1, 2, 3}, &msg));
  EXPECT_NE(msg.find("size"), std::string::npos);
}

TEST(ValidateSssp, AcceptsDijkstraOutput) {
  const Graph g = small_graph();
  const auto r = dijkstra(g, 0);
  std::string msg;
  EXPECT_TRUE(validate_sssp(g, 0, r.dist, &msg)) << msg;
}

TEST(ValidateSssp, AcceptsOnGeneratedGraphs) {
  const Graph g = gen::rmat(10, 4096, 0.57, 0.19, 0.19, WeightScheme::gap(), 5,
                            true);
  const auto r = dijkstra(g, 0);
  std::string msg;
  EXPECT_TRUE(validate_sssp(g, 0, r.dist, &msg)) << msg;
}

TEST(ValidateSssp, RejectsNonZeroSource) {
  const Graph g = small_graph();
  auto dist = dijkstra(g, 0).dist;
  dist[0] = 1;
  std::string msg;
  EXPECT_FALSE(validate_sssp(g, 0, dist, &msg));
}

TEST(ValidateSssp, RejectsRelaxableEdge) {
  const Graph g = small_graph();
  auto dist = dijkstra(g, 0).dist;
  dist[3] = 100;  // edge (2,3,1) becomes relaxable: 5 + 1 < 100
  std::string msg;
  EXPECT_FALSE(validate_sssp(g, 0, dist, &msg));
  EXPECT_NE(msg.find("relaxable"), std::string::npos);
}

TEST(ValidateSssp, RejectsUnwitnessedDistance) {
  const Graph g = small_graph();
  auto dist = dijkstra(g, 0).dist;
  dist[4] = 1;  // vertex 4 has no in-edges at all
  std::string msg;
  EXPECT_FALSE(validate_sssp(g, 0, dist, &msg));
  EXPECT_NE(msg.find("no in-edge"), std::string::npos);
}

TEST(ValidateSssp, RejectsTooSmallDistance) {
  const Graph g = small_graph();
  auto dist = dijkstra(g, 0).dist;
  dist[2] = 4;  // true distance is 5; no in-edge achieves 4
  std::string msg;
  EXPECT_FALSE(validate_sssp(g, 0, dist, &msg));
}

TEST(ValidateSssp, RejectsZeroWeightCycleThatWitnessesItself) {
  // 1 and 2 witness each other over zero-weight arcs at 5, but the only path
  // from the source costs 10: each has a tight in-arc, and neither is
  // reached from the source over tight arcs.
  const Graph g =
      GraphBuilder().edges(3, {{0, 1, 10}, {1, 2, 0}, {2, 1, 0}}).build();
  std::string msg;
  EXPECT_TRUE(validate_sssp(g, 0, dijkstra(g, 0).dist, &msg)) << msg;
  EXPECT_EQ(dijkstra(g, 0).dist, (std::vector<Distance>{0, 10, 10}));
  EXPECT_FALSE(validate_sssp(g, 0, {0, 5, 5}, &msg));
  EXPECT_NE(msg.find("no in-edge"), std::string::npos);
}

TEST(ValidateSssp, RejectsWrongSize) {
  const Graph g = small_graph();
  std::string msg;
  EXPECT_FALSE(validate_sssp(g, 0, {0, 1}, &msg));
}

}  // namespace
}  // namespace wasp
