// Solver-reuse correctness: the query-throughput fast path (recycled
// distance buffers, cached partitions, prefetched relaxation) must be
// invisible in results. A reused Solver answering the same query twice, or
// a different query, must produce distances bit-identical to a fresh
// per-call solve — for every algorithm, and after a cancelled run, a
// different graph or an incremental repair left a free buffer dirty. The
// partition-cache suites are named PartitionReuse so the TSan preset's
// Partition filter runs them.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/solver.hpp"
#include "sssp/validate.hpp"
#include "support/cancel.hpp"
#include "support/errors.hpp"
#include "support/numa.hpp"

namespace wasp {
namespace {

Graph make_test_graph() {
  return gen::erdos_renyi(1500, 6.0, WeightScheme::gap(), 17);
}

SsspOptions options_for(Algorithm algo) {
  SsspOptions options;
  options.algo = algo;
  options.threads = 3;
  options.delta = 32;
  return options;
}

class SolverReuse : public testing::TestWithParam<Algorithm> {};

TEST_P(SolverReuse, RepeatAndCrossSourceQueriesAreBitIdentical) {
  const Graph g = make_test_graph();
  const VertexId s1 = pick_source_in_largest_component(g, 11);
  const VertexId s2 = pick_source_in_largest_component(g, 12345);
  ASSERT_NE(s1, s2);

  const SsspOptions options = options_for(GetParam());
  // Fresh per-call solves: each pays the full distance initialization.
  const SsspResult fresh1 = Solver(options).solve(g, s1);
  const SsspResult fresh2 = Solver(options).solve(g, s2);

  Solver solver(options);
  const SsspResult r1 = solver.solve(g, s1);
  const SsspResult r2 = solver.solve(g, s1);  // repeat query: one refill
  const SsspResult r3 = solver.solve(g, s2);  // different source, same pool

  EXPECT_EQ(r1.dist, fresh1.dist);
  EXPECT_EQ(r2.dist, fresh1.dist);
  EXPECT_EQ(r3.dist, fresh2.dist);

  // Every flat solve pays one O(V) fill of the buffer it runs in and
  // returns. Sequential Dijkstra keeps its own vector and fills none.
  const auto sweeps = [](const SsspResult& r) {
    return r.metrics.counter(obs::CounterId::kEpochSweeps);
  };
  const std::uint64_t fills = GetParam() == Algorithm::kDijkstra ? 0 : 1;
  EXPECT_EQ(sweeps(r1), fills);
  EXPECT_EQ(sweeps(r2), fills);
  EXPECT_EQ(sweeps(r3), fills);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, SolverReuse,
    testing::Values(Algorithm::kDijkstra, Algorithm::kBellmanFord,
                    Algorithm::kDeltaStepping, Algorithm::kJulienne,
                    Algorithm::kDeltaStar, Algorithm::kRhoStepping,
                    Algorithm::kMqDijkstra, Algorithm::kObim,
                    Algorithm::kWasp),
    [](const testing::TestParamInfo<Algorithm>& param_info) {
      std::string name = to_string(param_info.param);
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

/// Requests cancellation from the first run callback, so the cancel lands
/// mid-solve: every round of the round baselines, and every 4096 processed
/// vertices of the asynchronous ones.
class CancelOnFirstCallback final : public obs::RunObserver {
 public:
  explicit CancelOnFirstCallback(CancelToken& token) : token_(&token) {}
  void on_round(std::uint64_t, std::uint64_t) override { fire(); }
  void on_progress(int, std::uint64_t) override { fire(); }

 private:
  void fire() { token_->request_cancel(CancelReason::kUser); }
  CancelToken* token_;
};

/// Big enough that a cancel lands before the run can finish: some worker
/// of three processes past 4096 vertices.
Graph make_large_graph(std::uint64_t seed) {
  return gen::erdos_renyi(20000, 6.0, WeightScheme::gap(), seed);
}

class SolverReuseAfterReset : public testing::TestWithParam<Algorithm> {};

TEST_P(SolverReuseAfterReset, DirtyPoolIsRefilledBeforeEverySolve) {
  // A flat solve's only reset is the fill of the buffer it takes, so
  // whatever the buffer's previous user left in it must not leak into the
  // next answer. Each step below hands the next solve a dirty buffer or
  // none in a different way.
  VersionedGraph vg(make_large_graph(17));
  const Graph other = make_large_graph(18);
  ASSERT_EQ(other.num_vertices(), vg.num_vertices());
  const VertexId s = pick_source_in_largest_component(vg.graph(), 11);
  const VertexId t = pick_source_in_largest_component(other, 11);
  Solver solver(options_for(GetParam()));

  // A cancelled run leaves a partial relaxation behind.
  CancelToken token;
  CancelOnFirstCallback canceller(token);
  solver.options().observer = &canceller;
  solver.options().cancel = &token;
  EXPECT_THROW((void)solver.solve(vg.graph(), s), SolveCancelledError);
  solver.options().observer = nullptr;
  solver.options().cancel = nullptr;
  SsspResult r = solver.solve(vg.graph(), s);
  EXPECT_EQ(r.dist, dijkstra(vg.graph(), s).dist);
  EXPECT_EQ(r.metrics.counter(obs::CounterId::kEpochSweeps), 1u);

  // Another graph of the same size: a cold solve hands its buffer out as
  // the result, so the Solver keeps none between cold solves.
  r = solver.solve(other, t);
  EXPECT_EQ(r.dist, dijkstra(other, t).dist);
  EXPECT_EQ(solver.last_metrics().gauge(obs::GaugeId::kSolverStateBytes), 0u);

  // A full solve, then two repairs of the last answer published. The first
  // has no buffer one publish behind and copies its answer (one epoch
  // sweep). The second patches the full solve's buffer, which the loop
  // dropped, with no epoch sweep.
  Answer answer = solver.solve(vg, s, {}, 0);
  std::uint64_t answered = vg.version();
  const WEdge first = vg.flat().out_neighbors(s)[0];
  for (const std::uint64_t sweeps : {1u, 0u}) {
    const Weight w = vg.flat().out_neighbors(s)[0].w;
    (void)vg.apply(GraphDelta().set_weight(s, first.dst, w + 50));
    answer = solver.solve(vg, s, answer, answered);
    answered = vg.version();
    EXPECT_EQ(answer, dijkstra(vg.graph(), s).dist);
    EXPECT_EQ(
        solver.last_metrics().counter(obs::CounterId::kRepairFullSolves), 0u);
    EXPECT_EQ(solver.last_metrics().counter(obs::CounterId::kEpochSweeps),
              sweeps);
  }
  r = solver.solve(other, t);
  EXPECT_EQ(r.dist, dijkstra(other, t).dist);

  // That solve took the free buffer one publish back, the first repair's
  // answer, refilled it and returned it as its result, so the next repair
  // copies its answer (one epoch sweep) instead of patching the other
  // graph's distances.
  (void)vg.apply(GraphDelta().set_weight(s, first.dst, first.w));
  EXPECT_EQ(solver.solve(vg, s, answer, answered),
            dijkstra(vg.graph(), s).dist);
  EXPECT_EQ(solver.last_metrics().counter(obs::CounterId::kRepairFullSolves),
            0u);
  EXPECT_EQ(solver.last_metrics().counter(obs::CounterId::kEpochSweeps), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Pooled, SolverReuseAfterReset,
    testing::Values(Algorithm::kBellmanFord, Algorithm::kDeltaStepping,
                    Algorithm::kJulienne, Algorithm::kDeltaStar,
                    Algorithm::kRhoStepping, Algorithm::kMqDijkstra,
                    Algorithm::kObim, Algorithm::kWasp),
    [](const testing::TestParamInfo<Algorithm>& param_info) {
      return std::string(to_string(param_info.param));
    });

// --- partitioned Wasp: fragments and shards are built once per graph ------

SsspOptions partitioned_options(int fragments) {
  SsspOptions options = options_for(Algorithm::kWasp);
  options.threads = 4;
  options.wasp.topology = std::make_shared<const NumaTopology>(
      NumaTopology::synthetic(1, 2, 2));
  options.wasp.partition.enabled = true;
  options.wasp.partition.num_fragments = fragments;
  return options;
}

std::uint64_t builds(const SsspResult& r) {
  return r.metrics.counter(obs::CounterId::kPartitionBuilds);
}
std::uint64_t sweeps(const SsspResult& r) {
  return r.metrics.counter(obs::CounterId::kEpochSweeps);
}

TEST(PartitionReuse, RepeatAndCrossSourceQueriesAreBitIdentical) {
  const Graph g = make_test_graph();
  const VertexId s1 = pick_source_in_largest_component(g, 11);
  const VertexId s2 = pick_source_in_largest_component(g, 12345);
  ASSERT_NE(s1, s2);

  const SsspOptions options = partitioned_options(2);
  // Every one-shot Solver builds its own fragments.
  const SsspResult fresh1 = Solver(options).solve(g, s1);
  const SsspResult fresh2 = Solver(options).solve(g, s2);
  EXPECT_EQ(builds(fresh1), 1u);
  EXPECT_EQ(builds(fresh2), 1u);
  EXPECT_EQ(fresh1.dist, dijkstra(g, s1).dist);
  EXPECT_EQ(fresh2.dist, dijkstra(g, s2).dist);

  Solver solver(options);
  const SsspResult r1 = solver.solve(g, s1);
  const SsspResult r2 = solver.solve(g, s1);  // repeat: shards refilled
  const SsspResult r3 = solver.solve(g, s2);  // other source, same shards
  EXPECT_EQ(r1.dist, fresh1.dist);
  EXPECT_EQ(r2.dist, fresh1.dist);
  EXPECT_EQ(r3.dist, fresh2.dist);

  // One build, on the cold solve only, and one fill of the shard set per
  // solve: the build fills them with kInfDist, reuse refills them. A
  // partitioned run takes no flat buffer, and the Solver holds none.
  EXPECT_EQ(builds(r1), 1u);
  EXPECT_EQ(builds(r2), 0u);
  EXPECT_EQ(builds(r3), 0u);
  EXPECT_EQ(sweeps(r1), 1u);
  EXPECT_EQ(sweeps(r2), 1u);
  EXPECT_EQ(sweeps(r3), 1u);
  EXPECT_EQ(r3.metrics.gauge(obs::GaugeId::kSolverStateBytes), 0u);
}

TEST(PartitionReuse, OneFragmentRunIsTheFlatRun) {
  // A partitioned run that resolves to one fragment (one fragment asked
  // for, or one thread) builds nothing and runs in a flat buffer; at one
  // thread it does exactly the flat run's work.
  const Graph g = make_test_graph();
  VersionedGraph vg(make_test_graph());
  const VertexId s = pick_source_in_largest_component(g, 11);
  const std::vector<Distance> reference = dijkstra(g, s).dist;
  for (const int threads : {4, 1}) {
    SsspOptions options = partitioned_options(threads == 4 ? 1 : 0);
    options.threads = threads;
    Solver solver(options);
    const SsspResult r = solver.solve(g, s);
    EXPECT_EQ(r.dist, reference);
    EXPECT_EQ(builds(r), 0u);
    EXPECT_EQ(sweeps(r), 1u);  // the buffer's fill
    // Two published answers free the first one's buffer; the flat run
    // takes it, refills it and returns it as its result.
    const Distance* freed = nullptr;
    {
      const Answer a = solver.solve(vg, s, {}, 0);
      freed = a.data();
    }
    (void)solver.solve(vg, s, {}, 0);
    const SsspResult again = solver.solve(g, s);
    EXPECT_EQ(again.dist, reference);
    EXPECT_EQ(again.dist.data(), freed);
    EXPECT_EQ(sweeps(again), 1u);

    if (threads == 1) {
      options.wasp.partition.enabled = false;
      const SsspResult flat = Solver(options).solve(g, s);
      EXPECT_EQ(r.metrics.counter(obs::CounterId::kRelaxations),
                flat.metrics.counter(obs::CounterId::kRelaxations));
    }
  }

  // A one-fragment full solve publishes the buffer it ran in. The first
  // repair copies that answer; the second patches the full solve's buffer,
  // which the loop dropped, with no copy (no epoch sweep).
  VersionedGraph grid(gen::grid(30, 30, WeightScheme::uniform(1, 100), 5));
  Solver inc(partitioned_options(1));
  Answer answer = inc.solve(grid, 0, {}, 0);
  EXPECT_EQ(answer, dijkstra(grid.graph(), 0).dist);
  std::uint64_t answered = grid.version();
  const WEdge first = grid.flat().out_neighbors(0)[0];
  for (const std::uint64_t sweeps : {1u, 0u}) {
    const Weight w = grid.flat().out_neighbors(0)[0].w;
    (void)grid.apply(GraphDelta().set_weight(0, first.dst, w + 50));
    answer = inc.solve(grid, 0, answer, answered);
    answered = grid.version();
    EXPECT_EQ(answer, dijkstra(grid.graph(), 0).dist);
    EXPECT_EQ(inc.last_metrics().counter(obs::CounterId::kRepairFullSolves),
              0u);
    EXPECT_EQ(inc.last_metrics().counter(obs::CounterId::kEpochSweeps),
              sweeps);
  }
}

TEST(PartitionReuse, EachVersionedBatchForcesExactlyOneRebuild) {
  VersionedGraph vg(gen::grid(40, 40, WeightScheme::uniform(1, 100), 5));
  const VertexId s = 0;
  Solver solver(partitioned_options(2));

  const SsspResult cold = solver.solve(vg.graph(), s);
  EXPECT_EQ(builds(cold), 1u);
  EXPECT_EQ(builds(solver.solve(vg.graph(), s)), 0u);

  // Weight-only: patched into the CSR in place, at the same address. The
  // cached fragments hold the old weights and must not be reused. (Making
  // the source's first arc nearly free changes the answer, so a reuse
  // would show in the distances too.)
  const WEdge first = vg.flat().out_neighbors(s)[0];
  (void)vg.apply(GraphDelta().set_weight(s, first.dst, first.w == 1 ? 99 : 1));
  ASSERT_FALSE(vg.dirty());
  const SsspResult weighted = solver.solve(vg.graph(), s);
  EXPECT_EQ(builds(weighted), 1u);
  EXPECT_EQ(weighted.dist, dijkstra(vg.graph(), s).dist);
  EXPECT_NE(weighted.dist, cold.dist);
  EXPECT_EQ(builds(solver.solve(vg.graph(), s)), 0u);

  // Structural: staged in the overlay, folded into the CSR by compaction.
  (void)vg.apply(GraphDelta().insert(s, vg.num_vertices() - 1, 1));
  ASSERT_TRUE(vg.dirty());
  const SsspResult structural = solver.solve(vg.graph(), s);
  EXPECT_EQ(builds(structural), 1u);
  EXPECT_EQ(structural.dist, dijkstra(vg.graph(), s).dist);
  EXPECT_NE(structural.dist, weighted.dist);
  EXPECT_EQ(builds(solver.solve(vg.graph(), s)), 0u);
}

TEST(PartitionReuse, FragmentCountOrTopologyChangeForcesRebuild) {
  const Graph g = make_test_graph();
  const VertexId s = pick_source_in_largest_component(g, 11);
  const std::vector<Distance> reference = dijkstra(g, s).dist;

  Solver solver(partitioned_options(2));
  EXPECT_EQ(builds(solver.solve(g, s)), 1u);

  solver.options().wasp.partition.num_fragments = 3;
  SsspResult r = solver.solve(g, s);
  EXPECT_EQ(builds(r), 1u);
  EXPECT_EQ(r.dist, reference);
  EXPECT_EQ(builds(solver.solve(g, s)), 0u);

  // An equal-content topology is still a different object: the cache keys
  // on the topology it holds, not on what it describes.
  solver.options().wasp.topology = std::make_shared<const NumaTopology>(
      NumaTopology::synthetic(1, 2, 2));
  r = solver.solve(g, s);
  EXPECT_EQ(builds(r), 1u);
  EXPECT_EQ(r.dist, reference);
  EXPECT_EQ(builds(solver.solve(g, s)), 0u);

  // A different graph rebuilds as well. Directed, so leaf pruning must
  // spare the degree-1 vertices it prunes on undirected graphs.
  const Graph other = gen::rmat(11, 1 << 12, 0.57, 0.19, 0.19,
                                WeightScheme::gap(), 18, /*undirected=*/false);
  const VertexId t = pick_source_in_largest_component(other, 11);
  r = solver.solve(other, t);
  EXPECT_EQ(builds(r), 1u);
  EXPECT_EQ(r.dist, dijkstra(other, t).dist);
}

TEST(PartitionReuse, RepairNeverBindsToTheUnusedFlatArray) {
  // A partitioned full solve keeps its distances in fragment shards and
  // publishes their copy-out, and an earlier flat solve handed its buffer
  // out as its result. The repair copies the answer it is given into a
  // working buffer and runs one fragment over it.
  VersionedGraph vg(gen::grid(30, 30, WeightScheme::uniform(1, 100), 5));
  Solver inc(partitioned_options(2));
  const VertexId s = 0;
  (void)inc.solve(vg.graph(), vg.num_vertices() - 1, Algorithm::kBellmanFord);
  const Answer answer = inc.solve(vg, s, {}, 0);
  EXPECT_EQ(answer, dijkstra(vg.graph(), s).dist);
  const std::uint64_t answered = vg.version();

  const WEdge first = vg.flat().out_neighbors(s)[0];
  (void)vg.apply(GraphDelta().set_weight(s, first.dst, first.w + 50));
  EXPECT_EQ(inc.solve(vg, s, answer, answered), dijkstra(vg.graph(), s).dist);
  EXPECT_EQ(inc.last_metrics().counter(obs::CounterId::kRepairFullSolves), 0u);
  EXPECT_EQ(inc.last_metrics().counter(obs::CounterId::kEpochSweeps), 1u);
}

TEST(PartitionReuse, WarmSolveAfterCancelledSolveIsExact) {
  // Big enough that a fragment's worker reaches the progress callback
  // (every 4096 vertices) long before the solve could finish.
  const Graph g = gen::grid(200, 200, WeightScheme::uniform(1, 100), 8);
  const VertexId s = 0;
  const std::vector<Distance> reference = dijkstra(g, s).dist;

  SsspOptions options = partitioned_options(2);
  options.threads = 3;
  Solver solver(options);
  EXPECT_EQ(builds(solver.solve(g, s)), 1u);

  CancelToken token;
  CancelOnFirstCallback canceller(token);
  solver.options().observer = &canceller;
  solver.options().cancel = &token;
  EXPECT_THROW((void)solver.solve(g, s), SolveCancelledError);

  // The shards hold the cancelled run's partial relaxation; the next solve
  // reuses them (no rebuild) and must still be exact.
  solver.options().observer = nullptr;
  solver.options().cancel = nullptr;
  const SsspResult r = solver.solve(g, s);
  EXPECT_EQ(builds(r), 0u);
  EXPECT_EQ(r.dist, reference);
}

}  // namespace
}  // namespace wasp
