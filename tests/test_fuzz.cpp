// Randomized differential testing: many random graphs with varied size,
// density, directedness and weight ranges (including zero weights), every
// algorithm checked against Dijkstra. The single most effective net for
// concurrency and bucketing bugs — any divergence is a real defect because
// SSSP distances are a unique fixed point.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "graph/graph.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/sssp.hpp"
#include "sssp/validate.hpp"
#include "support/random.hpp"

namespace wasp {
namespace {

/// A random multigraph with the given knobs; may be disconnected, may have
/// parallel edges, may have zero-weight edges.
Graph random_graph(Xoshiro256& rng, VertexId n, double avg_degree,
                   bool undirected, Weight max_w, bool zero_weights) {
  const auto m = static_cast<std::size_t>(avg_degree * n / (undirected ? 2 : 1));
  std::vector<Edge> edges;
  edges.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    const auto v = static_cast<VertexId>(rng.next_below(n));
    const Weight lo = zero_weights ? 0 : 1;
    const auto w = static_cast<Weight>(rng.next_in(lo, max_w));
    if (u != v) edges.push_back({u, v, w});
  }
  return GraphBuilder().edges(n, edges).undirected(undirected).build();
}

class FuzzAllAlgorithms : public testing::TestWithParam<int> {};

TEST_P(FuzzAllAlgorithms, EveryAlgorithmMatchesDijkstra) {
  const int round = GetParam();
  Xoshiro256 rng(0xF002 + static_cast<std::uint64_t>(round) * 7919);

  const auto n = static_cast<VertexId>(rng.next_in(2, 400));
  const double avg_degree = 0.5 + rng.next_double() * 8.0;
  const bool undirected = rng.next() % 2 == 0;
  const auto max_w = static_cast<Weight>(rng.next_in(1, 1u << (rng.next() % 12)));
  const bool zero_weights = rng.next() % 4 == 0;
  const Graph g = random_graph(rng, n, avg_degree, undirected, max_w,
                               zero_weights);
  if (g.num_edges() == 0) return;
  const VertexId src = pick_source_in_largest_component(
      g, 17 + static_cast<std::uint64_t>(round));
  const auto expected = dijkstra(g, src).dist;

  const auto delta = static_cast<Weight>(rng.next_in(1, max_w * 4 + 1));
  const int threads = 1 + static_cast<int>(rng.next_below(6));

  for (const Algorithm algo :
       {Algorithm::kBellmanFord, Algorithm::kDeltaStepping, Algorithm::kJulienne,
        Algorithm::kDeltaStar, Algorithm::kRhoStepping,
        Algorithm::kRadiusStepping, Algorithm::kMqDijkstra,
        Algorithm::kSmqDijkstra, Algorithm::kObim, Algorithm::kWasp}) {
    SsspOptions options;
    options.algo = algo;
    options.threads = threads;
    options.delta = delta;
    options.stepping.rho = 1 + rng.next_below(1 << 12);
    options.wasp.theta = static_cast<std::uint32_t>(1 + rng.next_below(512));
    options.seed = static_cast<std::uint64_t>(round);
    const SsspResult r = run_sssp(g, src, options);
    std::string message;
    ASSERT_TRUE(distances_equal(expected, r.dist, &message))
        << algorithm_name(algo) << " diverged on round " << round << " (n=" << n
        << ", avg_deg=" << avg_degree << ", undirected=" << undirected
        << ", max_w=" << max_w << ", zero_w=" << zero_weights
        << ", delta=" << delta << ", threads=" << threads << "): " << message;
  }
}

INSTANTIATE_TEST_SUITE_P(Rounds, FuzzAllAlgorithms, testing::Range(0, 40));

class FuzzWaspConfigs : public testing::TestWithParam<int> {};

TEST_P(FuzzWaspConfigs, RandomConfigurationsMatchDijkstra) {
  const int round = GetParam();
  Xoshiro256 rng(0xA11CE + static_cast<std::uint64_t>(round) * 104729);

  const auto n = static_cast<VertexId>(rng.next_in(2, 800));
  const Graph g = random_graph(rng, n, 0.5 + rng.next_double() * 6.0,
                               rng.next() % 2 == 0,
                               static_cast<Weight>(rng.next_in(1, 4096)),
                               rng.next() % 5 == 0);
  if (g.num_edges() == 0) return;
  const VertexId src =
      pick_source_in_largest_component(g, static_cast<std::uint64_t>(round));
  const auto expected = dijkstra(g, src).dist;

  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 1 + static_cast<int>(rng.next_below(10));
  options.delta = static_cast<Weight>(rng.next_in(1, 1u << (1 + rng.next() % 16)));
  options.wasp.leaf_pruning = rng.next() % 2 == 0;
  options.wasp.bidirectional_relaxation = rng.next() % 2 == 0;
  options.wasp.neighborhood_decomposition = rng.next() % 2 == 0;
  options.wasp.theta = static_cast<std::uint32_t>(1 + rng.next_below(256));
  options.wasp.steal_policy =
      static_cast<StealPolicy>(rng.next_below(3));
  options.wasp.steal_retries = static_cast<int>(rng.next_below(8));
  if (rng.next() % 2 == 0) {
    options.wasp.topology = std::make_shared<NumaTopology>(NumaTopology::synthetic(
        1 + static_cast<int>(rng.next_below(2)),
        1 + static_cast<int>(rng.next_below(4)),
        1 + static_cast<int>(rng.next_below(4))));
  }
  const SsspResult r = run_sssp(g, src, options);
  std::string message;
  ASSERT_TRUE(distances_equal(expected, r.dist, &message))
      << "wasp fuzz round " << round << " (threads=" << options.threads
      << ", delta=" << options.delta << "): " << message;
}

INSTANTIATE_TEST_SUITE_P(Rounds, FuzzWaspConfigs, testing::Range(0, 40));

}  // namespace
}  // namespace wasp
