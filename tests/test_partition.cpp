// Partitioned-execution suite (docs/NUMA.md): fragment assembly round-trips
// the CSR bit-for-bit, boundary classification matches brute force, remote
// counters account for cut traffic. Exactness across topologies, fragment
// counts and flush thresholds is checked by test_differential.cpp; seeded
// schedules and faults on the remote publish->drain window by
// SchedulerHarness.PartitionedWaspEndToEndSchedulesMatchDijkstra
// (test_verify.cpp).
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
#include "sssp/validate.hpp"
#include "sssp/wasp.hpp"
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

// --- partitioned solves -----------------------------------------------------

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

TEST(PartitionSolve, RemoteCountersAccountForCutTraffic) {
  const Fixture& f = fixtures()[1];  // rmat
  auto topo = std::make_shared<NumaTopology>(NumaTopology::synthetic(2, 1, 2));

  // Multi-fragment run: remote relaxations flow, and the share is a true
  // fraction of all relaxations (counting semantics in obs/metrics.hpp).
  SsspOptions multi = partitioned_options(4, /*fragments=*/4, topo);
  const SsspResult rm = Solver(multi).solve(f.graph, f.source);
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
  const SsspResult rs = Solver(single).solve(f.graph, f.source);
  EXPECT_EQ(rs.metrics.counter(obs::CounterId::kRemoteRelaxations), 0u);
  EXPECT_EQ(rs.metrics.counter(obs::CounterId::kRemoteBatches), 0u);
}

}  // namespace
}  // namespace wasp
