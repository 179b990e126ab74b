// Solver-reuse correctness: the query-throughput fast path (pooled
// epoch-versioned distances, cached partitions, prefetched relaxation) must
// be invisible in results. A reused Solver answering the same query twice,
// or a different query, must produce distances bit-identical to a fresh
// per-call solve — for every algorithm and across an epoch wrap. The
// partition-cache suites are named PartitionReuse so the TSan preset's
// Partition filter runs them.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/incremental.hpp"
#include "sssp/solver.hpp"
#include "sssp/sssp.hpp"
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
  const SsspResult fresh1 = run_sssp(g, s1, options);
  const SsspResult fresh2 = run_sssp(g, s2, options);

  Solver solver(options);
  const SsspResult r1 = solver.solve(g, s1);
  const SsspResult r2 = solver.solve(g, s1);  // repeat query: epoch bump only
  const SsspResult r3 = solver.solve(g, s2);  // different source, same pool

  EXPECT_EQ(r1.dist, fresh1.dist);
  EXPECT_EQ(r2.dist, fresh1.dist);
  EXPECT_EQ(r3.dist, fresh2.dist);

  // The pooled array is initialized once (the first acquire); repeat
  // queries re-use it with an O(1) epoch bump. Sequential Dijkstra bypasses
  // the pool entirely.
  const auto sweeps = [](const SsspResult& r) {
    return r.metrics.counter(obs::CounterId::kEpochSweeps);
  };
  if (GetParam() == Algorithm::kDijkstra) {
    EXPECT_EQ(sweeps(r1), 0u);
  } else {
    EXPECT_EQ(sweeps(r1), 1u);
  }
  EXPECT_EQ(sweeps(r2), 0u);
  EXPECT_EQ(sweeps(r3), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, SolverReuse,
    testing::Values(Algorithm::kDijkstra, Algorithm::kBellmanFord,
                    Algorithm::kDeltaStepping, Algorithm::kJulienne,
                    Algorithm::kDeltaStar, Algorithm::kRhoStepping,
                    Algorithm::kRadiusStepping, Algorithm::kMqDijkstra,
                    Algorithm::kSmqDijkstra, Algorithm::kObim,
                    Algorithm::kWasp),
    [](const testing::TestParamInfo<Algorithm>& param_info) {
      std::string name = to_string(param_info.param);
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

TEST(SolverReuseEpochWrap, ForcedWrapSweepsAndStaysCorrect) {
  const Graph g = make_test_graph();
  const VertexId s = pick_source_in_largest_component(g, 11);
  const std::vector<Distance> reference = dijkstra(g, s).dist;

  Solver solver(options_for(Algorithm::kWasp));
  const SsspResult r1 = solver.solve(g, s);
  EXPECT_EQ(r1.metrics.counter(obs::CounterId::kEpochSweeps), 1u);
  EXPECT_EQ(r1.dist, reference);

  // Jump the tag to its maximum: the next acquire wraps to 0 and must run
  // the full O(V) re-stamp instead of the O(1) bump — entries stamped a full
  // tag-space ago would otherwise read as live.
  AtomicDistances* dist = solver.distances().current();
  ASSERT_NE(dist, nullptr);
  dist->debug_set_epoch(0xFFFFFFFFu);
  const SsspResult r2 = solver.solve(g, s);
  EXPECT_EQ(r2.metrics.counter(obs::CounterId::kEpochSweeps), 1u);
  EXPECT_EQ(dist->epoch(), 0u);
  EXPECT_EQ(r2.dist, reference);

  // And the bump fast path resumes afterwards.
  const SsspResult r3 = solver.solve(g, s);
  EXPECT_EQ(r3.metrics.counter(obs::CounterId::kEpochSweeps), 0u);
  EXPECT_EQ(r3.dist, reference);
}

TEST(SolverReusePrefetch, LookaheadIsValidatedAndZeroDisables) {
  const Graph g = make_test_graph();
  const VertexId s = pick_source_in_largest_component(g, 11);
  const std::vector<Distance> reference = dijkstra(g, s).dist;

  SsspOptions options = options_for(Algorithm::kMqDijkstra);
  options.prefetch_lookahead = 257;
  EXPECT_THROW(Solver bad(std::move(options)), InvalidOptionsError);

  // Lookahead is purely a performance knob: off and on give identical
  // distances, and the prefetch_issued counter reports which ran.
  SsspOptions off = options_for(Algorithm::kMqDijkstra);
  off.prefetch_lookahead = 0;
  Solver solver_off(off);
  const SsspResult r_off = solver_off.solve(g, s);
  EXPECT_EQ(r_off.dist, reference);
  EXPECT_EQ(r_off.metrics.counter(obs::CounterId::kPrefetchIssued), 0u);

  SsspOptions on = options_for(Algorithm::kMqDijkstra);
  on.prefetch_lookahead = 2;
  Solver solver_on(on);
  const SsspResult r_on = solver_on.solve(g, s);
  EXPECT_EQ(r_on.dist, reference);
  EXPECT_GT(r_on.metrics.counter(obs::CounterId::kPrefetchIssued), 0u);
}

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
  // Without a Solver every call builds its own fragments.
  const SsspResult fresh1 = run_sssp(g, s1, options);
  const SsspResult fresh2 = run_sssp(g, s2, options);
  EXPECT_EQ(builds(fresh1), 1u);
  EXPECT_EQ(builds(fresh2), 1u);
  EXPECT_EQ(fresh1.dist, dijkstra(g, s1).dist);
  EXPECT_EQ(fresh2.dist, dijkstra(g, s2).dist);

  Solver solver(options);
  const SsspResult r1 = solver.solve(g, s1);
  const SsspResult r2 = solver.solve(g, s1);  // repeat: shards re-epoched
  const SsspResult r3 = solver.solve(g, s2);  // other source, same shards
  EXPECT_EQ(r1.dist, fresh1.dist);
  EXPECT_EQ(r2.dist, fresh1.dist);
  EXPECT_EQ(r3.dist, fresh2.dist);

  // One build and one shard sweep, on the cold solve only; the flat pooled
  // array is never acquired for a partitioned run.
  EXPECT_EQ(builds(r1), 1u);
  EXPECT_EQ(builds(r2), 0u);
  EXPECT_EQ(builds(r3), 0u);
  EXPECT_EQ(sweeps(r1), 1u);
  EXPECT_EQ(sweeps(r2), 0u);
  EXPECT_EQ(sweeps(r3), 0u);
  EXPECT_EQ(solver.distances().current(), nullptr);
}

TEST(PartitionReuse, OneFragmentRunIsTheFlatRun) {
  // A partitioned run that resolves to one fragment (one fragment asked
  // for, or one thread) builds nothing and runs on the pooled flat array;
  // at one thread it does exactly the flat run's work.
  const Graph g = make_test_graph();
  const VertexId s = pick_source_in_largest_component(g, 11);
  const std::vector<Distance> reference = dijkstra(g, s).dist;
  for (const int threads : {4, 1}) {
    SsspOptions options = partitioned_options(threads == 4 ? 1 : 0);
    options.threads = threads;
    Solver solver(options);
    const SsspResult r = solver.solve(g, s);
    EXPECT_EQ(r.dist, reference);
    EXPECT_EQ(builds(r), 0u);
    EXPECT_EQ(sweeps(r), 1u);  // the pooled array's first fill
    ASSERT_NE(solver.distances().current(), nullptr);
    EXPECT_EQ(solver.distances().current()->size(), g.num_vertices());
    EXPECT_EQ(sweeps(solver.solve(g, s)), 0u);  // then an epoch bump

    if (threads == 1) {
      options.wasp.partition.enabled = false;
      const SsspResult flat = Solver(options).solve(g, s);
      EXPECT_EQ(r.metrics.counter(obs::CounterId::kRelaxations),
                flat.metrics.counter(obs::CounterId::kRelaxations));
    }
  }

  // It also binds an IncrementalSolver, so an update repairs in place.
  VersionedGraph vg(gen::grid(30, 30, WeightScheme::uniform(1, 100), 5));
  IncrementalSolver inc(partitioned_options(1));
  EXPECT_EQ(inc.solve(vg, 0), dijkstra(vg.graph(), 0).dist);
  const WEdge first = vg.flat().out_neighbors(0)[0];
  (void)vg.apply(GraphDelta().set_weight(0, first.dst, first.w + 50));
  EXPECT_EQ(inc.solve(vg, 0), dijkstra(vg.graph(), 0).dist);
  EXPECT_FALSE(inc.last_repair().full_solve);
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

TEST(PartitionReuse, IncrementalSolverNeverBindsToTheUnusedFlatArray) {
  // A partitioned full solve keeps its distances in fragment shards, so
  // the pooled flat array holds no answer the repair could start from —
  // here it holds another source's distances from an earlier flat solve.
  VersionedGraph vg(gen::grid(30, 30, WeightScheme::uniform(1, 100), 5));
  IncrementalSolver inc(partitioned_options(2));
  const VertexId s = 0;
  (void)inc.solver().solve(vg.graph(), vg.num_vertices() - 1,
                           Algorithm::kBellmanFord);
  EXPECT_EQ(inc.solve(vg, s), dijkstra(vg.graph(), s).dist);

  const WEdge first = vg.flat().out_neighbors(s)[0];
  (void)vg.apply(GraphDelta().set_weight(s, first.dst, first.w + 50));
  EXPECT_EQ(inc.solve(vg, s), dijkstra(vg.graph(), s).dist);
  EXPECT_TRUE(inc.last_repair().full_solve);
}

/// Cancels the run from its first progress callback, i.e. mid-solve.
class CancelOnProgress final : public obs::RunObserver {
 public:
  explicit CancelOnProgress(CancelToken& token) : token_(&token) {}
  void on_progress(int, std::uint64_t) override {
    token_->request_cancel(CancelReason::kUser);
  }

 private:
  CancelToken* token_;
};

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
  CancelOnProgress canceller(token);
  solver.set_observer(&canceller);
  solver.options().cancel = &token;
  EXPECT_THROW((void)solver.solve(g, s), SolveCancelledError);

  // The shards hold the cancelled run's partial relaxation; the next solve
  // reuses them (no rebuild) and must still be exact.
  solver.set_observer(nullptr);
  solver.options().cancel = nullptr;
  const SsspResult r = solver.solve(g, s);
  EXPECT_EQ(builds(r), 0u);
  EXPECT_EQ(r.dist, reference);
}

}  // namespace
}  // namespace wasp
