// Tests for the byte-compressed CSR: exact round-trips on every generator
// family, footprint reduction, iteration order, and SSSP directly over the
// compressed form.
#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "graph/compressed.hpp"
#include "graph/generators.hpp"
#include "sssp/dijkstra.hpp"

namespace wasp {
namespace {

void expect_roundtrip(const Graph& g) {
  const CompressedGraph cg = CompressedGraph::compress(g);
  EXPECT_EQ(cg.num_vertices(), g.num_vertices());
  EXPECT_EQ(cg.num_edges(), g.num_edges());
  EXPECT_EQ(cg.is_undirected(), g.is_undirected());
  const Graph back = cg.decompress();
  EXPECT_EQ(back.offsets(), g.offsets());
  EXPECT_EQ(back.adjacency(), g.adjacency());
}

TEST(CompressedGraph, RoundTripsAcrossFamilies) {
  expect_roundtrip(gen::grid(20, 20, WeightScheme::gap(), 1));
  expect_roundtrip(gen::rmat(10, 8192, 0.57, 0.19, 0.19, WeightScheme::gap(), 2,
                             /*undirected=*/false));
  expect_roundtrip(gen::rmat(10, 8192, 0.57, 0.19, 0.19, WeightScheme::gap(), 3,
                             /*undirected=*/true));
  expect_roundtrip(gen::star_hub(2000, 0.93, 0.01, WeightScheme::gap(), 4));
  expect_roundtrip(gen::chain_forest(3, 100, WeightScheme::gap(), 5));
  expect_roundtrip(GraphBuilder().edges(1, {}).build());  // edgeless
}

TEST(CompressedGraph, IterationMatchesUncompressed) {
  const Graph g = gen::erdos_renyi(500, 8.0, WeightScheme::gap(), 6);
  const CompressedGraph cg = CompressedGraph::compress(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(cg.out_degree(v), g.out_degree(v));
    const auto expected = g.out_neighbors(v);
    std::size_t i = 0;
    cg.for_each_out(v, [&](VertexId dst, Weight w) {
      ASSERT_LT(i, expected.size());
      EXPECT_EQ(dst, expected[i].dst);
      EXPECT_EQ(w, expected[i].w);
      ++i;
    });
    EXPECT_EQ(i, expected.size());
  }
}

TEST(CompressedGraph, CompressesTypicalGraphs) {
  // Grid: neighbours are +-1 and +-cols away — tiny deltas, big wins.
  const Graph grid = gen::grid(100, 100, WeightScheme::uniform(1, 100), 7);
  const CompressedGraph cgrid = CompressedGraph::compress(grid);
  EXPECT_LT(cgrid.adjacency_bytes(),
            grid.num_edges() * sizeof(WEdge) * 6 / 10);

  // Skewed RMAT with GAP weights still saves space.
  const Graph rmat =
      gen::rmat(12, 1 << 15, 0.57, 0.19, 0.19, WeightScheme::gap(), 8, true);
  const CompressedGraph crmat = CompressedGraph::compress(rmat);
  EXPECT_LT(crmat.byte_size(), crmat.uncompressed_bytes());
}

TEST(CompressedGraph, HandlesLargeWeightsAndBackwardEdges) {
  // First-destination deltas can be negative (dst < src) and weights can
  // need multi-byte varints.
  const Graph g = GraphBuilder()
      .edges(10, {{9, 0, 1'000'000}, {9, 8, 3}, {0, 9, 42}})
      .build();
  expect_roundtrip(g);
}

TEST(CompressedGraph, DijkstraOverCompressedMatchesReference) {
  const Graph g = gen::rmat(11, 1 << 14, 0.57, 0.19, 0.19, WeightScheme::gap(),
                            9, true);
  const VertexId src = pick_source_in_largest_component(g, 1);
  const CompressedGraph cg = CompressedGraph::compress(g);
  EXPECT_EQ(dijkstra_compressed(cg, src), dijkstra(g, src).dist);
}

TEST(CompressedGraph, DijkstraSaturatesInsteadOfWrapping) {
  // 10 + 4,294,967,290 passes kInfDist: the path to 2 is no path, as in
  // dijkstra(), not a wrapped distance of 4.
  const Graph g =
      GraphBuilder().edges(3, {{0, 1, 10}, {1, 2, kInfDist - 5}}).build();
  const std::vector<Distance> want = dijkstra(g, 0).dist;
  ASSERT_EQ(want[2], kInfDist);
  EXPECT_EQ(dijkstra_compressed(CompressedGraph::compress(g), 0), want);
}

}  // namespace
}  // namespace wasp
