// Correctness of every SSSP implementation against the sequential Dijkstra
// reference, swept over graph families, delta values, and thread counts
// (parameterized property tests). All implementations must produce exactly
// the same distance vector — SSSP has a unique fixed point.
#include <gtest/gtest.h>

#include <deque>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "graph/compressed.hpp"
#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "sssp/contracted.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/sssp.hpp"
#include "sssp/stepping.hpp"
#include "sssp/validate.hpp"
#include "support/random.hpp"

namespace wasp {
namespace {

struct TestGraph {
  const char* name;
  Graph graph;
  VertexId source;
};

/// Small but structurally diverse instances; each exercises a different
/// code path (deep buckets, hub decomposition, leaves, skew, cycles).
const TestGraph& test_graph(int index) {
  static const std::vector<TestGraph> graphs = [] {
    std::vector<TestGraph> gs;
    const auto add = [&gs](const char* name, Graph g) {
      const VertexId src = pick_source_in_largest_component(g, 123);
      gs.push_back(TestGraph{name, std::move(g), src});
    };
    add("grid", gen::grid(40, 40, WeightScheme::gap(), 11));
    add("chain", gen::chain_forest(4, 300, WeightScheme::gap(), 12));
    add("star", gen::star_hub(3000, 0.93, 0.01, WeightScheme::gap(), 13));
    add("rmat_directed",
        gen::rmat(11, 16384, 0.57, 0.19, 0.19, WeightScheme::gap(), 14, false));
    add("rmat_undirected",
        gen::rmat(11, 16384, 0.57, 0.19, 0.19, WeightScheme::gap(), 15, true));
    add("er", gen::erdos_renyi(3000, 8.0, WeightScheme::gap(), 16));
    add("unit_weights", gen::grid(30, 30, WeightScheme::unit(), 17));
    add("normal_weights",
        gen::random_regular(2000, 6, WeightScheme::truncated_normal(1.0, 0.5),
                            18));
    return gs;
  }();
  return graphs[static_cast<std::size_t>(index)];
}
constexpr int kNumTestGraphs = 8;

using Param = std::tuple<Algorithm, int /*graph index*/, Weight /*delta*/,
                         int /*threads*/>;

std::string param_name(const testing::TestParamInfo<Param>& info) {
  const auto [algo, graph_index, delta, threads] = info.param;
  return std::string(algorithm_name(algo)) + "_" +
         test_graph(graph_index).name + "_d" + std::to_string(delta) + "_t" +
         std::to_string(threads);
}

class SsspCorrectness : public testing::TestWithParam<Param> {};

TEST_P(SsspCorrectness, MatchesDijkstra) {
  const auto [algo, graph_index, delta, threads] = GetParam();
  const TestGraph& tg = test_graph(graph_index);

  const SsspResult reference = dijkstra(tg.graph, tg.source);

  SsspOptions options;
  options.algo = algo;
  options.threads = threads;
  options.delta = delta;
  options.seed = 99;
  // Small theta so neighborhood decomposition actually triggers on the
  // star graph's hub at test scale.
  options.wasp.theta = 256;
  const SsspResult result = run_sssp(tg.graph, tg.source, options);

  std::string message;
  ASSERT_TRUE(distances_equal(reference.dist, result.dist, &message))
      << algorithm_name(algo) << " on " << tg.name << " (delta=" << delta
      << ", threads=" << threads << "): " << message;
}

// Every parallel algorithm on every graph family, single- and multi-threaded,
// at a fine and a coarse delta.
INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, SsspCorrectness,
    testing::Combine(
        testing::Values(Algorithm::kBellmanFord, Algorithm::kDeltaStepping,
                        Algorithm::kJulienne, Algorithm::kDeltaStar,
                        Algorithm::kRhoStepping, Algorithm::kRadiusStepping,
                        Algorithm::kMqDijkstra, Algorithm::kSmqDijkstra,
                        Algorithm::kObim, Algorithm::kWasp),
        testing::Range(0, kNumTestGraphs),
        testing::Values(Weight{1}, Weight{64}),
        testing::Values(1, 4)),
    param_name);

// Deltas beyond max weight and at extreme coarsening.
class SsspDeltaSweep : public testing::TestWithParam<Weight> {};

TEST_P(SsspDeltaSweep, WaspAnyDeltaMatchesDijkstra) {
  const Weight delta = GetParam();
  const TestGraph& tg = test_graph(0);
  const SsspResult reference = dijkstra(tg.graph, tg.source);
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 3;
  options.delta = delta;
  const SsspResult result = run_sssp(tg.graph, tg.source, options);
  std::string message;
  ASSERT_TRUE(distances_equal(reference.dist, result.dist, &message)) << message;
}

INSTANTIATE_TEST_SUITE_P(DeltaValues, SsspDeltaSweep,
                         testing::Values(Weight{1}, Weight{2}, Weight{16},
                                         Weight{255}, Weight{1024},
                                         Weight{1u << 20}));

TEST(SsspEdgeCases, SingleVertexGraph) {
  const Graph g = GraphBuilder().edges(1, {}).build();
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 2;
  const SsspResult r = run_sssp(g, 0, options);
  ASSERT_EQ(r.dist.size(), 1u);
  EXPECT_EQ(r.dist[0], 0u);
}

TEST(SsspEdgeCases, DisconnectedVerticesStayInfinite) {
  // Two components; sources in the first leave the second at infinity.
  const Graph g = GraphBuilder()
      .edges(5, {{0, 1, 2}, {1, 2, 2}, {3, 4, 2}})
      .undirected()
      .build();
  for (const Algorithm algo :
       {Algorithm::kDeltaStepping, Algorithm::kMqDijkstra, Algorithm::kWasp}) {
    SsspOptions options;
    options.algo = algo;
    options.threads = 2;
    options.delta = 1;
    const SsspResult r = run_sssp(g, 0, options);
    EXPECT_EQ(r.dist[0], 0u) << algorithm_name(algo);
    EXPECT_EQ(r.dist[1], 2u) << algorithm_name(algo);
    EXPECT_EQ(r.dist[2], 4u) << algorithm_name(algo);
    EXPECT_EQ(r.dist[3], kInfDist) << algorithm_name(algo);
    EXPECT_EQ(r.dist[4], kInfDist) << algorithm_name(algo);
  }
}

TEST(SsspEdgeCases, ZeroWeightEdgesSupported) {
  const Graph g = GraphBuilder()
      .edges(4, {{0, 1, 0}, {1, 2, 0}, {2, 3, 5}, {0, 3, 6}})
      .build();
  const SsspResult reference = dijkstra(g, 0);
  EXPECT_EQ(reference.dist[3], 5u);
  for (const Algorithm algo :
       {Algorithm::kDeltaStepping, Algorithm::kDeltaStar, Algorithm::kWasp}) {
    SsspOptions options;
    options.algo = algo;
    options.threads = 2;
    options.delta = 3;
    const SsspResult r = run_sssp(g, 0, options);
    std::string message;
    EXPECT_TRUE(distances_equal(reference.dist, r.dist, &message))
        << algorithm_name(algo) << ": " << message;
  }
}

TEST(SsspEdgeCases, SourceWithNoOutEdges) {
  const Graph g = GraphBuilder().edges(3, {{1, 2, 4}}).build();
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 2;
  const SsspResult r = run_sssp(g, 0, options);
  EXPECT_EQ(r.dist[0], 0u);
  EXPECT_EQ(r.dist[1], kInfDist);
  EXPECT_EQ(r.dist[2], kInfDist);
}

TEST(SsspEdgeCases, ParallelEdgesKeepMinimum) {
  const Graph g = GraphBuilder()
      .edges(2, {{0, 1, 9}, {0, 1, 3}, {0, 1, 7}})
      .build();
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 2;
  const SsspResult r = run_sssp(g, 0, options);
  EXPECT_EQ(r.dist[1], 3u);
}

TEST(SsspMetrics, RelaxationCountsArePlausible) {
  using obs::CounterId;
  const TestGraph& tg = test_graph(4);  // undirected rmat
  const SsspResult reference = dijkstra(tg.graph, tg.source);
  const std::uint64_t reference_relax =
      reference.metrics.counter(CounterId::kRelaxations);
  EXPECT_GT(reference_relax, 0u);

  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 1;
  options.delta = 1;
  options.wasp.bidirectional_relaxation = false;  // adds pull relaxations
  const SsspResult wasp_run = run_sssp(tg.graph, tg.source, options);
  // A parallel run cannot beat Dijkstra's relaxation count (the theoretical
  // minimum modulo leaf pruning, which only removes relaxations Dijkstra
  // performs; allow small slack for that).
  EXPECT_GE(wasp_run.metrics.counter(CounterId::kRelaxations) +
                tg.graph.num_vertices(),
            reference_relax / 2);
  EXPECT_GT(wasp_run.metrics.counter(CounterId::kUpdates), 0u);
}

// --- dead arcs: closed arcs left in the CSR at kDeadWeight ------------------

/// The live view of `vg` as a plain graph, dead arcs left out.
Graph live_rebuild(const VersionedGraph& vg) {
  std::vector<Edge> edges;
  for (VertexId u = 0; u < vg.num_vertices(); ++u)
    for (const WEdge& e : vg.out_neighbors(u))
      if (!vg.is_undirected() || u < e.dst) edges.push_back({u, e.dst, e.w});
  return GraphBuilder()
      .edges(vg.num_vertices(), std::move(edges))
      .undirected(vg.is_undirected())
      .build();
}

struct DeadArcRun {
  std::string name;
  SsspOptions options;
};

/// Every Algorithm: Wasp at 1 and 4 threads and at 2 fragments, then each
/// other algorithm at 4 threads.
std::vector<DeadArcRun> dead_arc_runs() {
  std::vector<DeadArcRun> runs;
  const auto add = [&runs](std::string name, Algorithm algo, int threads) {
    SsspOptions options;
    options.algo = algo;
    options.threads = threads;
    options.delta = 16;
    options.seed = 7;
    runs.push_back({std::move(name), options});
  };
  add("wasp_t1", Algorithm::kWasp, 1);
  add("wasp_t4", Algorithm::kWasp, 4);
  add("wasp_2_fragments", Algorithm::kWasp, 4);
  runs.back().options.wasp.partition.enabled = true;
  runs.back().options.wasp.partition.num_fragments = 2;
  for (const Algorithm algo :
       {Algorithm::kDijkstra, Algorithm::kBellmanFord,
        Algorithm::kDeltaStepping, Algorithm::kJulienne, Algorithm::kDeltaStar,
        Algorithm::kRhoStepping, Algorithm::kRadiusStepping,
        Algorithm::kMqDijkstra, Algorithm::kSmqDijkstra, Algorithm::kObim})
    add(algorithm_name(algo), algo, 4);
  return runs;
}

TEST(DeadArcs, EveryAlgorithmIsExactOverClosedAndReopenedArcs) {
  const std::vector<DeadArcRun> runs = dead_arc_runs();
  ThreadTeam team(2);
  for (const bool undirected : {false, true}) {
    SCOPED_TRACE(undirected ? "undirected grid" : "directed rmat");
    VersionedGraph vg(
        undirected ? gen::grid(24, 24, WeightScheme::gap(), 31)
                   : gen::rmat(9, 4096, 0.57, 0.19, 0.19, WeightScheme::gap(),
                               32, /*undirected=*/false));
    const VertexId source = pick_source_in_largest_component(vg.graph(), 5);
    Xoshiro256 rng(undirected ? 0xC105EULL : 0x0BE4ULL);
    const auto sample = [&] {
      for (;;) {
        const auto u = static_cast<VertexId>(rng.next_below(vg.num_vertices()));
        const auto adj = vg.out_neighbors(u);
        if (!adj.empty())
          return std::make_pair(u, adj[rng.next_below(adj.size())]);
      }
    };
    std::deque<std::pair<VertexId, WEdge>> closed;
    for (int b = 0; b < 6; ++b) {
      SCOPED_TRACE("batch " + std::to_string(b));
      // Each batch closes 4 arcs, jams 4 (x4) and reopens the oldest
      // closures past 8, alternately at their old weight and a new one.
      GraphDelta delta;
      std::set<std::pair<VertexId, VertexId>> used;
      const auto fresh = [&](VertexId u, VertexId v) {
        if (undirected && v < u) std::swap(u, v);
        return used.insert({u, v}).second;
      };
      for (int k = 0; k < 8; ++k) {
        const auto [u, e] = sample();
        if (!fresh(u, e.dst)) continue;
        if (k % 2 == 0) {
          delta.erase(u, e.dst);
          closed.emplace_back(u, e);
        } else {
          delta.set_weight(u, e.dst, e.w * 4);
        }
      }
      while (closed.size() > 8) {
        const auto [u, e] = closed.front();
        closed.pop_front();
        delta.insert(u, e.dst, b % 2 == 0 ? e.w : e.w + 3);
      }
      (void)vg.apply(delta);
      const Graph& g = vg.graph();
      ASSERT_GT(vg.dead_arcs(), 0u);
      ASSERT_EQ(vg.compactions(), 0u);

      const Graph rebuilt = live_rebuild(vg);
      const std::vector<Distance> want = dijkstra(rebuilt, source).dist;
      // Radius-stepping's probe skips dead arcs: the radii, and so the
      // round thresholds, are the rebuilt graph's.
      EXPECT_EQ(compute_radii(g, 16, team), compute_radii(rebuilt, 16, team));
      const auto expect_exact = [&](const std::string& name,
                                    const std::vector<Distance>& got) {
        std::string message;
        EXPECT_TRUE(distances_equal(want, got, &message))
            << name << ": " << message;
        EXPECT_TRUE(validate_sssp(g, source, got, &message))
            << name << ": " << message;
      };
      for (const DeadArcRun& run : runs)
        expect_exact(run.name, run_sssp(g, source, run.options).dist);
      expect_exact("dijkstra_compressed",
                   dijkstra_compressed(CompressedGraph::compress(g), source));
      if (undirected)
        expect_exact(
            "contracted",
            run_sssp_contracted(g, source, runs[1].options).result.dist);
    }
  }
}

}  // namespace
}  // namespace wasp
