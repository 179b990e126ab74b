// Partitioned-execution correctness suite (docs/NUMA.md):
// fragment assembly round-trips the CSR bit-for-bit, boundary classification
// matches brute force, and the partitioned engine's distances are identical
// to flat Wasp across synthetic topologies and seeded chaos schedules.
//
// Every suite here is named Partition* so the TSan preset's test filter
// picks it up (CMakePresets.json).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/solver.hpp"
#include "sssp/sssp.hpp"
#include "sssp/validate.hpp"
#include "sssp/wasp.hpp"
#include "support/chaos.hpp"
#include "support/numa.hpp"
#include "support/thread_team.hpp"

namespace wasp {
namespace {

struct Fixture {
  std::string name;
  Graph graph;
  VertexId source;
  std::vector<Distance> reference;
};

Fixture make_fixture(std::string name, Graph g) {
  Fixture f;
  f.name = std::move(name);
  f.graph = std::move(g);
  f.source = pick_source_in_largest_component(f.graph, 7);
  f.reference = dijkstra(f.graph, f.source).dist;
  return f;
}

const std::vector<Fixture>& fixtures() {
  static const std::vector<Fixture>* all = [] {
    auto* v = new std::vector<Fixture>;
    v->push_back(make_fixture("grid", gen::grid(40, 40, WeightScheme::gap(), 22)));
    v->push_back(make_fixture(
        "rmat", gen::rmat(12, 1 << 15, 0.57, 0.19, 0.19, WeightScheme::gap(),
                          23, true)));
    v->push_back(make_fixture(
        "star", gen::star_hub(4000, 0.93, 0.01, WeightScheme::gap(), 21)));
    return v;
  }();
  return *all;
}

std::vector<NumaTopology> suite_topologies() {
  return {
      NumaTopology::flat(8),            // 1 node (CI reality)
      NumaTopology::synthetic(1, 2, 4), // 2 nodes, one socket
      NumaTopology::synthetic(2, 2, 2), // 4 nodes across 2 sockets
      NumaTopology::synthetic(4, 1, 2), // 4 sockets, 1 node each
  };
}

// --- fragment assembly ------------------------------------------------------

TEST(PartitionBuild, FragmentAssemblyRoundTripsCsr) {
  for (const Fixture& f : fixtures()) {
    for (const NumaTopology& topo : suite_topologies()) {
      for (const int want : {0, 1, 3, 7}) {
        const GraphPartition part =
            GraphPartition::build(f.graph, topo, want);
        const Graph& g = f.graph;
        ASSERT_EQ(part.num_vertices(), g.num_vertices());
        ASSERT_EQ(part.starts().front(), 0u);
        ASSERT_EQ(part.starts().back(), g.num_vertices());

        // Reassemble the global CSR from the fragments and compare
        // bit-for-bit (offsets as deltas, adjacency as raw records).
        EdgeIndex edges_seen = 0;
        VertexId vertices_seen = 0;
        for (int fi = 0; fi < part.num_fragments(); ++fi) {
          const GraphPartition::Fragment& frag = part.fragment(fi);
          ASSERT_EQ(frag.index, fi);
          ASSERT_EQ(frag.begin, part.starts()[static_cast<std::size_t>(fi)]);
          ASSERT_EQ(frag.end, part.starts()[static_cast<std::size_t>(fi) + 1]);
          ASSERT_EQ(frag.offsets.size(),
                    static_cast<std::size_t>(frag.num_vertices()) + 1);
          ASSERT_EQ(frag.offsets.front(), 0u);
          ASSERT_EQ(frag.adjacency.size(),
                    static_cast<std::size_t>(frag.num_edges()));
          for (VertexId v = frag.begin; v < frag.end; ++v) {
            ASSERT_EQ(frag.out_degree(v), g.out_degree(v))
                << f.name << " fragment " << fi << " vertex " << v;
            const WEdge* mine = frag.edge_data() + frag.edge_offset(v);
            const WEdge* ref = g.adjacency().data() + g.edge_offset(v);
            for (std::uint32_t j = 0; j < frag.out_degree(v); ++j) {
              ASSERT_EQ(mine[j].dst, ref[j].dst);
              ASSERT_EQ(mine[j].w, ref[j].w);
            }
          }
          edges_seen += frag.num_edges();
          vertices_seen += frag.num_vertices();
        }
        ASSERT_EQ(vertices_seen, g.num_vertices());
        ASSERT_EQ(edges_seen, g.num_edges());
      }
    }
  }
}

TEST(PartitionBuild, ParallelFillMatchesSerial) {
  const Fixture& f = fixtures()[1];  // rmat
  const NumaTopology topo = NumaTopology::synthetic(2, 2, 2);
  ThreadTeam team(4);
  const GraphPartition serial = GraphPartition::build(f.graph, topo, 4);
  const GraphPartition parallel =
      GraphPartition::build(f.graph, topo, 4, &team);
  ASSERT_EQ(serial.num_fragments(), parallel.num_fragments());
  ASSERT_EQ(serial.num_cut_edges(), parallel.num_cut_edges());
  for (int fi = 0; fi < serial.num_fragments(); ++fi) {
    const auto& a = serial.fragment(fi);
    const auto& b = parallel.fragment(fi);
    EXPECT_EQ(a.begin, b.begin);
    EXPECT_EQ(a.end, b.end);
    EXPECT_EQ(a.offsets, b.offsets);
    EXPECT_EQ(a.boundary, b.boundary);
    EXPECT_EQ(a.cut_edges, b.cut_edges);
    ASSERT_EQ(a.adjacency.size(), b.adjacency.size());
    for (std::size_t i = 0; i < a.adjacency.size(); ++i) {
      EXPECT_EQ(a.adjacency[i].dst, b.adjacency[i].dst);
      EXPECT_EQ(a.adjacency[i].w, b.adjacency[i].w);
    }
  }
}

TEST(PartitionBuild, OwnerLookupAgreesWithRanges) {
  for (const Fixture& f : fixtures()) {
    const NumaTopology topo = NumaTopology::synthetic(2, 2, 2);
    for (const int want : {1, 2, 4, 16}) {
      const GraphPartition part = GraphPartition::build(f.graph, topo, want);
      for (int fi = 0; fi < part.num_fragments(); ++fi) {
        const auto& frag = part.fragment(fi);
        for (VertexId v = frag.begin; v < frag.end; ++v) {
          ASSERT_EQ(part.owner_of(v), fi) << f.name << " vertex " << v;
          ASSERT_TRUE(frag.owns(v));
        }
      }
    }
  }
}

TEST(PartitionBuild, BoundaryClassificationMatchesBruteForce) {
  for (const Fixture& f : fixtures()) {
    const Graph& g = f.graph;
    const NumaTopology topo = NumaTopology::synthetic(2, 1, 2);
    for (const int want : {2, 5}) {
      const GraphPartition part = GraphPartition::build(g, topo, want);
      EdgeIndex expected_cut_total = 0;
      for (int fi = 0; fi < part.num_fragments(); ++fi) {
        const auto& frag = part.fragment(fi);
        EdgeIndex expected_cut = 0;
        for (VertexId v = frag.begin; v < frag.end; ++v) {
          bool crosses = false;
          for (const WEdge& e : g.out_neighbors(v)) {
            if (e.dst < frag.begin || e.dst >= frag.end) {
              crosses = true;
              ++expected_cut;
            }
          }
          ASSERT_EQ(frag.is_boundary(v), crosses)
              << f.name << " fragment " << fi << " vertex " << v;
        }
        ASSERT_EQ(frag.cut_edges, expected_cut);
        expected_cut_total += expected_cut;
      }
      ASSERT_EQ(part.num_cut_edges(), expected_cut_total);
    }
  }
}

TEST(PartitionBuild, DegenerateGraphs) {
  const NumaTopology topo = NumaTopology::synthetic(2, 2, 2);
  // Single vertex, no edges: one usable fragment plus empty tail fragments.
  Graph one = Graph::from_csr({0, 0}, {}, /*undirected=*/false);
  const GraphPartition part = GraphPartition::build(one, topo, 4);
  ASSERT_GE(part.num_fragments(), 1);
  ASSERT_EQ(part.num_vertices(), 1u);
  ASSERT_EQ(part.owner_of(0), 0);
  ASSERT_EQ(part.num_cut_edges(), 0u);
  VertexId covered = 0;
  for (int fi = 0; fi < part.num_fragments(); ++fi)
    covered += part.fragment(fi).num_vertices();
  ASSERT_EQ(covered, 1u);
}

// --- partitioned solves are distance-identical to flat wasp -----------------

SsspOptions partitioned_options(int threads, int fragments,
                                std::shared_ptr<const NumaTopology> topo) {
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = threads;
  options.delta = 8;
  options.wasp.topology = std::move(topo);
  options.wasp.partition.enabled = true;
  options.wasp.partition.num_fragments = fragments;
  return options;
}

TEST(PartitionSolve, MatchesFlatWaspAcrossTopologies) {
  for (const Fixture& f : fixtures()) {
    for (const NumaTopology& topo : suite_topologies()) {
      auto shared_topo = std::make_shared<NumaTopology>(topo);
      SsspOptions flat;
      flat.algo = Algorithm::kWasp;
      flat.threads = 8;
      flat.delta = 8;
      flat.wasp.topology = shared_topo;
      const SsspResult base = run_sssp(f.graph, f.source, flat);

      SsspOptions part = partitioned_options(8, /*fragments=*/0, shared_topo);
      const SsspResult r = run_sssp(f.graph, f.source, part);

      std::string why;
      ASSERT_TRUE(distances_equal(f.reference, base.dist, &why))
          << "flat wasp wrong on " << f.name << " (" << topo.describe()
          << "): " << why;
      // Bit-identical to flat, not merely equal to Dijkstra: both engines
      // must land on the same exact-distance fixed point.
      ASSERT_EQ(base.dist, r.dist)
          << f.name << " on " << topo.describe()
          << ": partitioned diverged from flat";
    }
  }
}

TEST(PartitionSolve, FragmentAndThresholdKnobs) {
  const Fixture& f = fixtures()[1];  // rmat
  auto topo = std::make_shared<NumaTopology>(NumaTopology::synthetic(2, 2, 2));
  for (const int fragments : {1, 2, 3, 8}) {
    for (const std::uint32_t threshold : {1u, 64u, 256u}) {
      SsspOptions options = partitioned_options(6, fragments, topo);
      options.wasp.partition.flush_threshold = threshold;
      const SsspResult r = run_sssp(f.graph, f.source, options);
      std::string why;
      ASSERT_TRUE(distances_equal(f.reference, r.dist, &why))
          << "fragments=" << fragments << " threshold=" << threshold << ": "
          << why;
    }
  }
}

TEST(PartitionSolve, SingleThreadAndSingleFragment) {
  const Fixture& f = fixtures()[0];  // grid
  auto topo = std::make_shared<NumaTopology>(NumaTopology::synthetic(1, 2, 4));
  for (const int threads : {1, 2}) {
    SsspOptions options = partitioned_options(threads, /*fragments=*/0, topo);
    const SsspResult r = run_sssp(f.graph, f.source, options);
    std::string why;
    ASSERT_TRUE(distances_equal(f.reference, r.dist, &why))
        << "threads=" << threads << ": " << why;
  }
}

TEST(PartitionSolve, StealPolicies) {
  const Fixture& f = fixtures()[2];  // star
  auto topo = std::make_shared<NumaTopology>(NumaTopology::synthetic(2, 2, 2));
  for (const StealPolicy policy : {StealPolicy::kPriorityNuma,
                                   StealPolicy::kRandom,
                                   StealPolicy::kTwoChoice}) {
    SsspOptions options = partitioned_options(8, /*fragments=*/4, topo);
    options.wasp.steal_policy = policy;
    const SsspResult r = run_sssp(f.graph, f.source, options);
    std::string why;
    ASSERT_TRUE(distances_equal(f.reference, r.dist, &why)) << why;
  }
}

TEST(PartitionSolve, RemoteCountersAccountForCutTraffic) {
  const Fixture& f = fixtures()[1];  // rmat
  auto topo = std::make_shared<NumaTopology>(NumaTopology::synthetic(2, 1, 2));

  // Multi-fragment run: remote relaxations flow, and the share is a true
  // fraction of all relaxations (counting semantics in obs/metrics.hpp).
  SsspOptions multi = partitioned_options(4, /*fragments=*/4, topo);
  const SsspResult rm = run_sssp(f.graph, f.source, multi);
  const std::uint64_t relax =
      rm.metrics.counter(obs::CounterId::kRelaxations);
  const std::uint64_t remote =
      rm.metrics.counter(obs::CounterId::kRemoteRelaxations);
  const std::uint64_t batches =
      rm.metrics.counter(obs::CounterId::kRemoteBatches);
  EXPECT_GT(remote, 0u);
  EXPECT_GT(batches, 0u);
  EXPECT_LE(remote, relax);

  // Single fragment: no boundary, so no remote traffic at all.
  SsspOptions single = partitioned_options(4, /*fragments=*/1, topo);
  const SsspResult rs = run_sssp(f.graph, f.source, single);
  EXPECT_EQ(rs.metrics.counter(obs::CounterId::kRemoteRelaxations), 0u);
  EXPECT_EQ(rs.metrics.counter(obs::CounterId::kRemoteBatches), 0u);
}

// --- chaos / scheduler sweeps ----------------------------------------------

// >= 200 seeded runs across chaos policies, topologies, and graphs; every
// one must match the Dijkstra reference exactly (acceptance criterion).
TEST(PartitionChaos, SeededSchedulesConvergeToReference) {
  constexpr int kThreads = 4;
  const auto policies = chaos::standard_policies();
  const auto topologies = suite_topologies();
  Solver solver(partitioned_options(kThreads, /*fragments=*/0, nullptr));

  int runs = 0;
  for (std::size_t pi = 0; pi < policies.size(); ++pi) {
    for (std::size_t ti = 0; ti < topologies.size(); ++ti) {
      auto topo = std::make_shared<NumaTopology>(topologies[ti]);
      const int seeds_per_cell =
          static_cast<int>(200 / (policies.size() * topologies.size())) + 1;
      for (int s = 0; s < seeds_per_cell; ++s) {
        const Fixture& f = fixtures()[static_cast<std::size_t>(runs) %
                                      fixtures().size()];
        chaos::Engine engine(
            static_cast<std::uint64_t>(10'000 * pi + 100 * ti + s),
            policies[pi], kThreads, /*record=*/true);
        SsspOptions& options = solver.options();
        options = partitioned_options(
            kThreads, /*fragments=*/static_cast<int>(runs % 4), topo);
        options.delta = (runs % 2 == 0) ? 2 : 32;
        options.chaos = &engine;
        const SsspResult r = solver.solve(f.graph, f.source);
        ++runs;
        std::string why;
        if (!distances_equal(f.reference, r.dist, &why)) {
          FAIL() << chaos::failure_report(
              engine, "partitioned wasp diverges on " + f.name + " (" +
                          topologies[ti].describe() + "): " + why);
        }
      }
    }
  }
  EXPECT_GE(runs, 200);
}

// Termination-fuzz focus: the publish->drain window is the novel blind spot
// (remote-flush-delay / remote-drain-delay chaos points stretch it).
TEST(PartitionChaos, TerminationFuzzOnRemoteWindow) {
  constexpr int kThreads = 6;
  const Fixture& f = fixtures()[0];  // grid: long chains cross fragments
  auto topo = std::make_shared<NumaTopology>(NumaTopology::synthetic(2, 1, 3));
  SsspOptions options = partitioned_options(kThreads, /*fragments=*/2, topo);
  options.delta = 2;
  options.wasp.partition.flush_threshold = 4;  // many small batches
  Solver solver(options);
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    chaos::Engine engine(seed, chaos::Policy::termination_fuzz(), kThreads,
                         /*record=*/true);
    solver.options().chaos = &engine;
    const SsspResult r = solver.solve(f.graph, f.source);
    std::string why;
    if (!distances_equal(f.reference, r.dist, &why)) {
      FAIL() << chaos::failure_report(
          engine, "termination fuzz diverged (seed " + std::to_string(seed) +
                      "): " + why);
    }
  }
}

}  // namespace
}  // namespace wasp
