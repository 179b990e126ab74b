// Tests for the CSR graph, weight schemes, and graph algorithms (connected
// components, leaf bitmap, transpose, BFS, degree stats).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "graph/delta.hpp"
#include "graph/graph.hpp"
#include "graph/weights.hpp"
#include "support/random.hpp"

namespace wasp {
namespace {

Graph triangle_plus_tail() {
  // 0-1-2 triangle, tail 2-3, isolated 4. Undirected.
  return GraphBuilder()
      .edges(5, {{0, 1, 5}, {1, 2, 3}, {0, 2, 9}, {2, 3, 1}})
      .undirected()
      .build();
}

TEST(Graph, EmptyGraph) {
  const Graph g = GraphBuilder().edges(0, {}).build();
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, DirectedFromEdges) {
  const Graph g = GraphBuilder()
      .edges(3, {{0, 1, 7}, {0, 2, 2}, {2, 1, 4}})
      .build();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_FALSE(g.is_undirected());
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.out_degree(1), 0u);
  EXPECT_EQ(g.out_degree(2), 1u);
  const auto n0 = g.out_neighbors(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], (WEdge{1, 7}));  // sorted by destination
  EXPECT_EQ(n0[1], (WEdge{2, 2}));
}

// Rows of every length the builder treats differently (already ordered,
// short, long), with repeated destinations, repeated records, weights past
// one byte and destinations past two.
TEST(Graph, SortsEveryRowByDestinationThenWeight) {
  constexpr VertexId kN = 70000;
  const std::uint32_t row_lengths[] = {0, 1, 5, 32, 33, 200, 3000};
  Xoshiro256 rng(42);
  std::vector<Edge> edges;
  std::vector<std::vector<WEdge>> want(std::size(row_lengths) + 1);
  for (VertexId u = 0; u < std::size(row_lengths); ++u) {
    for (std::uint32_t i = 0; i < row_lengths[u]; ++i) {
      const auto dst = static_cast<VertexId>(
          i % 3 == 0 ? kN - 1 - rng.next_below(4) : rng.next_below(kN));
      const auto w = static_cast<Weight>(i % 5 == 0 ? rng.next_below(3)
                                                    : rng.next());
      if (dst == u) continue;
      edges.push_back({u, dst, w});
      want[u].push_back({dst, w});
      if (i % 7 == 0) {
        edges.push_back({u, dst, w});
        want[u].push_back({dst, w});
      }
    }
  }
  const VertexId ordered = std::size(row_lengths);
  for (VertexId v = 1; v < 100; ++v) {
    edges.push_back({ordered, v * 600, v});
    want[ordered].push_back({v * 600, v});
  }
  const Graph g = GraphBuilder().edges(kN, edges).build();
  for (VertexId u = 0; u < want.size(); ++u) {
    std::sort(want[u].begin(), want[u].end(),
              [](const WEdge& a, const WEdge& b) {
                return std::pair(a.dst, a.w) < std::pair(b.dst, b.w);
              });
    const auto row = g.out_neighbors(u);
    EXPECT_TRUE(std::equal(row.begin(), row.end(), want[u].begin(),
                           want[u].end()))
        << "row " << u;
  }
}

TEST(Graph, UndirectedStoresBothDirections) {
  const Graph g = triangle_plus_tail();
  EXPECT_TRUE(g.is_undirected());
  EXPECT_EQ(g.num_edges(), 8u);  // 4 input edges, both directions
  EXPECT_EQ(g.out_degree(2), 3u);
  EXPECT_EQ(g.out_degree(4), 0u);
  // Symmetry: (1,2,3) implies (2,1,3).
  bool found = false;
  for (const WEdge& e : g.out_neighbors(2))
    if (e.dst == 1 && e.w == 3) found = true;
  EXPECT_TRUE(found);
}

TEST(Graph, DropsSelfLoops) {
  const Graph g = GraphBuilder()
      .edges(2, {{0, 0, 1}, {0, 1, 2}, {1, 1, 3}})
      .build();
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Graph, RejectsOutOfRangeVertices) {
  EXPECT_THROW(GraphBuilder().edges(2, {{0, 5, 1}}).build(), std::out_of_range);
}

TEST(Graph, NeighborRangeSubspan) {
  const Graph g = GraphBuilder()
      .edges(1 + 4, {{0, 1, 1}, {0, 2, 2}, {0, 3, 3}, {0, 4, 4}})
      .build();
  const auto mid = g.out_neighbors(0, 1, 3);
  ASSERT_EQ(mid.size(), 2u);
  EXPECT_EQ(mid[0].dst, 2u);
  EXPECT_EQ(mid[1].dst, 3u);
}

TEST(Graph, MaxWeight) {
  EXPECT_EQ(triangle_plus_tail().max_weight(), 9u);
  EXPECT_EQ(GraphBuilder().edges(1, {}).build().max_weight(), 0u);
}

TEST(Graph, FromCsrRejectsMalformedOffsets) {
  EXPECT_THROW(Graph::from_csr({}, {}, false), std::invalid_argument);
  EXPECT_THROW(Graph::from_csr({0, 2}, {WEdge{0, 1}}, false),
               std::invalid_argument);
}

TEST(WeightScheme, GapSchemeRange) {
  Xoshiro256 rng(1);
  const auto scheme = WeightScheme::gap();
  for (int i = 0; i < 10000; ++i) {
    const Weight w = scheme.sample(rng);
    ASSERT_GE(w, 1u);
    ASSERT_LE(w, 255u);
  }
}

TEST(WeightScheme, UnitScheme) {
  Xoshiro256 rng(1);
  const auto scheme = WeightScheme::unit();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(scheme.sample(rng), 1u);
}

TEST(WeightScheme, TruncatedNormalIsPositiveWithExpectedMean) {
  Xoshiro256 rng(1);
  const auto scheme = WeightScheme::truncated_normal(1.0, 0.25, 1000.0);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const Weight w = scheme.sample(rng);
    ASSERT_GE(w, 1u);
    sum += w;
  }
  // Mean ~ 1.0 * scale (sigma small enough that truncation barely bites).
  EXPECT_NEAR(sum / 20000.0, 1000.0, 30.0);
}

TEST(AssignWeights, DeterministicInSeed) {
  std::vector<Edge> a = {{0, 1, 0}, {1, 2, 0}, {2, 3, 0}};
  std::vector<Edge> b = a;
  assign_weights(a, WeightScheme::gap(), 99);
  assign_weights(b, WeightScheme::gap(), 99);
  EXPECT_EQ(a, b);
  std::vector<Edge> c = {{0, 1, 0}, {1, 2, 0}, {2, 3, 0}};
  assign_weights(c, WeightScheme::gap(), 100);
  EXPECT_NE(a, c);
}

TEST(ConnectedComponents, FindsComponentsAndLargest) {
  const Graph g = triangle_plus_tail();
  const ComponentInfo info = connected_components(g);
  EXPECT_EQ(info.size.size(), 2u);  // {0,1,2,3} and {4}
  EXPECT_EQ(info.size[info.largest], 4u);
  EXPECT_EQ(info.label[0], info.label[3]);
  EXPECT_NE(info.label[0], info.label[4]);
}

TEST(ConnectedComponents, DirectedUsesWeakConnectivity) {
  const Graph g = GraphBuilder().edges(3, {{0, 1, 1}, {2, 1, 1}}).build();
  const ComponentInfo info = connected_components(g);
  EXPECT_EQ(info.size.size(), 1u);
}

TEST(PickSource, LandsInLargestComponentWithOutEdges) {
  const Graph g = triangle_plus_tail();
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const VertexId s = pick_source_in_largest_component(g, seed);
    EXPECT_LE(s, 3u);
    EXPECT_GT(g.out_degree(s), 0u);
  }
}

TEST(LeafBitmap, UndirectedDegreeOneAndIsolated) {
  const Graph g = triangle_plus_tail();
  const auto leaf = compute_leaf_bitmap(g);
  EXPECT_FALSE(leaf[0]);
  EXPECT_FALSE(leaf[1]);
  EXPECT_FALSE(leaf[2]);
  EXPECT_TRUE(leaf[3]);  // degree 1
  EXPECT_TRUE(leaf[4]);  // isolated
}

TEST(LeafBitmap, DirectedOnlyZeroOutDegree) {
  const Graph g = GraphBuilder().edges(3, {{0, 1, 1}, {1, 2, 1}}).build();
  const auto leaf = compute_leaf_bitmap(g);
  EXPECT_FALSE(leaf[0]);
  EXPECT_FALSE(leaf[1]);
  EXPECT_TRUE(leaf[2]);
}

TEST(GraphStamp, FreshOnCopyCarriedByMoveAndRedrawnForTheMovedFrom) {
  Graph a = triangle_plus_tail();
  const Graph b = triangle_plus_tail();
  EXPECT_NE(a.stamp(), b.stamp());  // equal content, different objects

  const std::uint64_t a_stamp = a.stamp();
  const Graph copy = a;
  EXPECT_NE(copy.stamp(), a_stamp);
  EXPECT_EQ(a.stamp(), a_stamp);  // copying leaves the source alone

  Graph moved = std::move(a);
  EXPECT_EQ(moved.stamp(), a_stamp);  // the stamp travels with the content
  EXPECT_NE(a.stamp(), a_stamp);  // the moved-from object is re-stamped
  EXPECT_NE(a.stamp(), moved.stamp());

  Graph target = triangle_plus_tail();
  const std::uint64_t target_stamp = target.stamp();
  target = copy;  // copy-assignment: new content, new stamp
  EXPECT_NE(target.stamp(), target_stamp);
  EXPECT_NE(target.stamp(), copy.stamp());
  const std::uint64_t moved_stamp = moved.stamp();
  target = std::move(moved);
  EXPECT_EQ(target.stamp(), moved_stamp);
  EXPECT_NE(moved.stamp(), moved_stamp);
}

TEST(GraphStamp, VersionedGraphRenewsItOnEveryInPlacePatch) {
  VersionedGraph vg(triangle_plus_tail());
  EXPECT_NE(vg.uid(), vg.flat().stamp());  // one counter, distinct ids
  const std::uint64_t uid = vg.uid();

  // A weight change is patched into the flat CSR: new content, new stamp.
  std::uint64_t stamp = vg.flat().stamp();
  (void)vg.apply(GraphDelta().set_weight(0, 1, 42));
  EXPECT_NE(vg.flat().stamp(), stamp);

  // A structural change goes to the overlay; the flat CSR (and its stamp)
  // change only when compaction folds it in.
  stamp = vg.flat().stamp();
  (void)vg.apply(GraphDelta().insert(3, 4, 7));
  ASSERT_TRUE(vg.dirty());
  const Graph& flat = vg.graph();  // compacts
  EXPECT_NE(flat.stamp(), stamp);
  stamp = flat.stamp();
  (void)vg.graph();  // clean: nothing patched, stamp kept
  EXPECT_EQ(vg.flat().stamp(), stamp);
  EXPECT_EQ(vg.uid(), uid);  // the object's identity never changes
}

TEST(Transpose, ReversesDirectedEdges) {
  const Graph g = GraphBuilder()
      .edges(3, {{0, 1, 7}, {0, 2, 2}, {2, 1, 4}})
      .build();
  const Graph gt = GraphBuilder().transpose_of(g).build();
  EXPECT_EQ(gt.num_edges(), 3u);
  EXPECT_EQ(gt.out_degree(1), 2u);  // in-edges of 1
  EXPECT_EQ(gt.out_degree(0), 0u);
  bool found = false;
  for (const WEdge& e : gt.out_neighbors(1))
    if (e.dst == 0 && e.w == 7) found = true;
  EXPECT_TRUE(found);
}

TEST(Transpose, UndirectedIsInvariant) {
  const Graph g = triangle_plus_tail();
  const Graph gt = GraphBuilder().transpose_of(g).build();
  ASSERT_EQ(gt.num_edges(), g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(gt.out_degree(v), g.out_degree(v));
}

TEST(BfsHops, ComputesHopDistances) {
  const Graph g = triangle_plus_tail();
  const auto hops = bfs_hops(g, 0);
  EXPECT_EQ(hops[0], 0u);
  EXPECT_EQ(hops[1], 1u);
  EXPECT_EQ(hops[2], 1u);
  EXPECT_EQ(hops[3], 2u);
  EXPECT_EQ(hops[4], kInfDist);
}

TEST(DegreeStats, SummarizesDegrees) {
  const Graph g = triangle_plus_tail();
  const DegreeStats s = degree_stats(g);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 3u);
  EXPECT_EQ(s.num_isolated, 1u);
  EXPECT_DOUBLE_EQ(s.avg, 8.0 / 5.0);
}

}  // namespace
}  // namespace wasp
