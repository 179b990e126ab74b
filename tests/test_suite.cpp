// Tests for the benchmark workload suite: every paper-dataset analogue must
// build, be deterministic, expose its defining structural property, and pick
// a valid source.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <utility>

#include "graph/algorithms.hpp"
#include "graph/suite.hpp"

namespace wasp {
namespace {

TEST(Suite, MainSuiteHasThirteenClasses) {
  EXPECT_EQ(suite::main_suite().size(), 13u);
}

TEST(Suite, AppendixSuiteHasNineClasses) {
  EXPECT_EQ(suite::appendix_suite().size(), 9u);
}

TEST(Suite, AbbreviationsRoundTrip) {
  for (const auto cls : suite::main_suite())
    EXPECT_EQ(suite::parse_abbr(suite::abbr(cls)), cls);
  for (const auto cls : suite::appendix_suite())
    EXPECT_EQ(suite::parse_abbr(suite::abbr(cls)), cls);
  EXPECT_THROW(suite::parse_abbr("NOPE"), std::invalid_argument);
}

TEST(Suite, EveryClassBuildsAtTinyScale) {
  for (const auto cls : suite::main_suite()) {
    const auto w = suite::make(cls, 0.1, 1);
    EXPECT_GT(w.graph.num_vertices(), 0u) << suite::abbr(cls);
    EXPECT_GT(w.graph.num_edges(), 0u) << suite::abbr(cls);
    EXPECT_LT(w.source, w.graph.num_vertices()) << suite::abbr(cls);
    EXPECT_GT(w.graph.out_degree(w.source), 0u) << suite::abbr(cls);
  }
  for (const auto cls : suite::appendix_suite()) {
    const auto w = suite::make(cls, 0.1, 1);
    EXPECT_GT(w.graph.num_edges(), 0u) << suite::abbr(cls);
  }
}

TEST(Suite, DeterministicInSeed) {
  const auto a = suite::make(suite::GraphClass::kTwitter, 0.1, 5);
  const auto b = suite::make(suite::GraphClass::kTwitter, 0.1, 5);
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.graph.adjacency(), b.graph.adjacency());
}

// FNV-1a over the values of the offsets, each record's dst and w, and the
// source, so the digest does not depend on the layout of the arrays.
std::uint64_t fingerprint(const suite::Workload& w) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t x) { h = (h ^ x) * 0x100000001b3ULL; };
  for (const EdgeIndex o : w.graph.offsets()) mix(o);
  for (const WEdge& e : w.graph.adjacency()) {
    mix(e.dst);
    mix(e.w);
  }
  mix(w.source);
  return h;
}

// Pins every class's graph and source at scale 0.1, seed 1. A generator or
// builder change that claims to leave the graphs alone must keep these.
TEST(Suite, EveryClassMatchesItsPinnedFingerprint) {
  const std::pair<suite::GraphClass, std::uint64_t> pinned[] = {
      {suite::GraphClass::kFriendster, 0x0c4e4d7a771f866cULL},
      {suite::GraphClass::kKmer, 0xf24a5a226fb517bbULL},
      {suite::GraphClass::kKron, 0x267c8de995007997ULL},
      {suite::GraphClass::kMawi, 0x1a6effe58465b2b7ULL},
      {suite::GraphClass::kMoliere, 0xecf01bdc56506f9cULL},
      {suite::GraphClass::kOrkut, 0xe6f4a5cd9226276cULL},
      {suite::GraphClass::kRoadEu, 0xf0be47585be981d2ULL},
      {suite::GraphClass::kRoadUsa, 0xcdb49a815b9f3104ULL},
      {suite::GraphClass::kWebSk, 0x214954ddf2576c8cULL},
      {suite::GraphClass::kTwitter, 0x6ce220c3118b084aULL},
      {suite::GraphClass::kUk2007, 0x2bcef2f89f8eb2b3ULL},
      {suite::GraphClass::kUkUnion, 0xf35258d974f06784ULL},
      {suite::GraphClass::kUrand, 0x1af9e1613390a81bULL},
      {suite::GraphClass::kCircuit, 0x3460fedd82004ed3ULL},
      {suite::GraphClass::kDelaunay, 0xb57d61b088505c58ULL},
      {suite::GraphClass::kHypercube, 0xebb52ed92aaf1aadULL},
      {suite::GraphClass::kKktPower, 0x77388ad56d406817ULL},
      {suite::GraphClass::kNlpKkt, 0xcaeca7ca016a364eULL},
      {suite::GraphClass::kRandReg, 0x33509f290dc6d35dULL},
      {suite::GraphClass::kSpielman, 0xbe8f7a8288205b40ULL},
      {suite::GraphClass::kStokes, 0x4d66e1bc433698beULL},
      {suite::GraphClass::kWebbase, 0xe8073b6a7bef1d66ULL},
  };
  EXPECT_EQ(std::size(pinned),
            suite::main_suite().size() + suite::appendix_suite().size());
  for (const auto& [cls, digest] : pinned) {
    const auto w = suite::make(cls, 0.1, 1);
    EXPECT_EQ(fingerprint(w), digest)
        << suite::abbr(cls) << " 0x" << std::hex << fingerprint(w);
  }
}

TEST(Suite, RoadClassHasLowDegreeAndBigDiameter) {
  const auto w = suite::make(suite::GraphClass::kRoadUsa, 0.2, 1);
  const DegreeStats s = degree_stats(w.graph);
  EXPECT_LE(s.max, 4u);
  const auto hops = bfs_hops(w.graph, w.source);
  std::uint32_t max_hop = 0;
  for (auto h : hops)
    if (h != kInfDist) max_hop = std::max(max_hop, h);
  // Grid diameter ~ 2 * side; at scale 0.2 the side is ~143.
  EXPECT_GT(max_hop, 50u);
}

TEST(Suite, MawiClassHasDominantHubAndLeaves) {
  const auto w = suite::make(suite::GraphClass::kMawi, 0.2, 1);
  const DegreeStats s = degree_stats(w.graph);
  // Hub adjacent to most of the graph.
  EXPECT_GT(s.max, w.graph.num_vertices() / 2);
  const auto leaf = compute_leaf_bitmap(w.graph);
  VertexId leaves = 0;
  for (auto b : leaf) leaves += b;
  EXPECT_GT(leaves, w.graph.num_vertices() / 2);
}

TEST(Suite, SkewedClassesAreSkewed) {
  const auto tw = suite::make(suite::GraphClass::kTwitter, 0.2, 1);
  const auto ur = suite::make(suite::GraphClass::kUrand, 0.2, 1);
  EXPECT_GT(degree_stats(tw.graph).max, 4 * degree_stats(ur.graph).max);
}

TEST(Suite, DirectednessMatchesPaperTable) {
  EXPECT_FALSE(suite::make(suite::GraphClass::kTwitter, 0.1, 1).graph.is_undirected());
  EXPECT_FALSE(suite::make(suite::GraphClass::kWebSk, 0.1, 1).graph.is_undirected());
  EXPECT_TRUE(suite::make(suite::GraphClass::kRoadUsa, 0.1, 1).graph.is_undirected());
  EXPECT_TRUE(suite::make(suite::GraphClass::kKron, 0.1, 1).graph.is_undirected());
  EXPECT_TRUE(suite::make(suite::GraphClass::kMawi, 0.1, 1).graph.is_undirected());
}

TEST(Suite, ScaleGrowsTheGraph) {
  const auto small = suite::make(suite::GraphClass::kUrand, 0.1, 1);
  const auto large = suite::make(suite::GraphClass::kUrand, 0.4, 1);
  EXPECT_GT(large.graph.num_vertices(), 2 * small.graph.num_vertices());
}

}  // namespace
}  // namespace wasp
