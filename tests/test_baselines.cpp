// Behaviour-focused tests for the baseline implementations: each test
// forces a specific internal mechanism (Julienne's overflow re-bucketing,
// the steppers' super-sparse and pull rounds, GAP's bucket fusion, OBIM's
// global-bag migration, MultiQueue parameterizations) and checks exactness.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/suite.hpp"
#include "obs/metrics.hpp"
#include "sssp/bellman_ford.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/julienne.hpp"
#include "sssp/mq_dijkstra.hpp"
#include "sssp/obim.hpp"
#include "sssp/solver.hpp"
#include "sssp/stepping.hpp"
#include "sssp/validate.hpp"
#include "support/errors.hpp"

namespace wasp {
namespace {

using obs::CounterId;

struct Ref {
  Graph graph;
  VertexId source;
  std::vector<Distance> dist;
};

Ref make_ref(Graph g, std::uint64_t seed = 3) {
  Ref r;
  r.graph = std::move(g);
  r.source = pick_source_in_largest_component(r.graph, seed);
  r.dist = dijkstra(r.graph, r.source).dist;
  return r;
}

/// Direct algorithm calls bypass the Solver front door, so each call brings
/// its own team, registry and all-kInfDist distance buffer for `g` (the
/// registry is only reset by the dispatcher; reusing one across calls would
/// accumulate counters). The run relaxes in `answer`, which then holds its
/// distances: an algorithm called directly copies nothing into
/// SsspResult::dist.
struct Ctx {
  ThreadTeam team;
  obs::MetricsRegistry metrics;
  std::vector<Distance> answer;
  AtomicDistances dist;
  RunContext ctx;

  Ctx(int threads, const Graph& g)
      : team(threads), metrics(threads), answer(g.num_vertices(), kInfDist),
        dist(answer), ctx{team, metrics} {
    ctx.dist = &dist;
  }
};

// --- one-thread work counts ---------------------------------------------------

/// rounds, relaxations, updates of one deterministic one-thread run.
struct WorkCounts {
  std::uint64_t rounds;
  std::uint64_t relaxations;
  std::uint64_t updates;

  friend bool operator==(const WorkCounts&, const WorkCounts&) = default;
};

std::ostream& operator<<(std::ostream& os, const WorkCounts& c) {
  return os << "{" << c.rounds << ", " << c.relaxations << ", " << c.updates
            << "}";
}

TEST(RoundBaselines, OneThreadWorkCountsArePinned) {
  // At one thread every round baseline is deterministic, so these counts
  // pin each algorithm's own rule (bins and fusion, the bucket window, the
  // threshold rule, the dedup flags) independently of how their rounds are
  // driven: a change to the round machinery must leave all of them
  // unchanged. The asynchronous baselines (MQ, OBIM) run no rounds but
  // are just as deterministic at one thread (the queues' RNGs are seeded
  // from options.seed), so their rows pin the worker loop the same way.
  struct Row {
    Algorithm algo;
    WorkCounts road;
    WorkCounts power_law;
  };
  const Row rows[] = {
      {Algorithm::kBellmanFord, {161, 140863, 47686}, {11, 451526, 23379}},
      {Algorithm::kDeltaStepping, {152, 44251, 13597}, {12, 646041, 21328}},
      {Algorithm::kJulienne, {465, 44953, 13597}, {26, 867932, 11357}},
      {Algorithm::kDeltaStar, {295, 40623, 13590}, {20, 895886, 11396}},
      {Algorithm::kRhoStepping, {136, 469112, 72004}, {11, 723728, 12278}},
      {Algorithm::kMqDijkstra, {0, 51594, 18039}, {0, 261538, 20071}},
      {Algorithm::kObim, {0, 44444, 13732}, {0, 1296316, 50877}},
  };
  const suite::Workload road =
      suite::make(suite::GraphClass::kRoadUsa, 0.1, 1);
  const suite::Workload power_law =
      suite::make(suite::GraphClass::kKron, 0.1, 1);
  const std::vector<Distance> road_ref = dijkstra(road.graph, road.source).dist;
  const std::vector<Distance> power_law_ref =
      dijkstra(power_law.graph, power_law.source).dist;
  const auto counts = [](const suite::Workload& w,
                         const std::vector<Distance>& ref, const Row& row,
                         Weight delta) {
    SsspOptions options;
    options.algo = row.algo;
    options.threads = 1;
    options.delta = delta;
    const SsspResult r = Solver(options).solve(w.graph, w.source);
    EXPECT_EQ(r.dist, ref) << to_string(row.algo) << " on " << w.name;
    return WorkCounts{r.metrics.counter(CounterId::kRounds),
                      r.metrics.counter(CounterId::kRelaxations),
                      r.metrics.counter(CounterId::kUpdates)};
  };
  for (const Row& row : rows) {
    EXPECT_EQ(counts(road, road_ref, row, 64), row.road)
        << to_string(row.algo) << " on road";
    EXPECT_EQ(counts(power_law, power_law_ref, row, 32), row.power_law)
        << to_string(row.algo) << " on power law";
  }
}

// --- Julienne: bounded window + overflow -----------------------------------

TEST(Julienne, OverflowRebucketingOnDeepGraphs) {
  // Long chain with delta=1: distances reach ~250*2048 so the 32-bucket
  // window overflows thousands of times.
  const Ref ref = make_ref(gen::chain_forest(1, 2048, WeightScheme::gap(), 5));
  Ctx c(3, ref.graph);
  const auto r = julienne_sssp(ref.graph, ref.source, /*delta=*/1, c.ctx);
  EXPECT_EQ(c.answer, ref.dist);
  // Many more rounds than buckets in one window.
  EXPECT_GT(r.metrics.counter(CounterId::kRounds), 32u);
}

TEST(Julienne, PullRoundsFireOnStarAndStayExact) {
  const Ref ref = make_ref(gen::star_hub(4000, 0.93, 0.01, WeightScheme::gap(), 6));
  Ctx c(4, ref.graph);
  const auto r = julienne_sssp(ref.graph, ref.source, 64, c.ctx);
  EXPECT_EQ(c.answer, ref.dist);
}

TEST(Julienne, WideDeltaCollapsesToFewRounds) {
  const Ref ref = make_ref(gen::erdos_renyi(2000, 8.0, WeightScheme::gap(), 7));
  Ctx c(2, ref.graph);
  const auto r = julienne_sssp(ref.graph, ref.source, 1u << 20, c.ctx);
  EXPECT_EQ(c.answer, ref.dist);
  // Everything lands in bucket 0.
  EXPECT_LE(r.metrics.counter(CounterId::kRounds), 16u);
}

// --- Delta* / rho stepping ---------------------------------------------------

TEST(Stepping, SuperSparseRoundsHandleChains) {
  // A bare chain keeps the frontier at ~1 vertex: the entire run goes
  // through the sequential super-sparse path.
  const Ref ref = make_ref(gen::chain_forest(1, 500, WeightScheme::gap(), 8));
  for (const auto kind : {SteppingKind::kDeltaStar, SteppingKind::kRho}) {
    Ctx c(4, ref.graph);
    const auto r =
        stepping_sssp(ref.graph, ref.source, kind, 64, 1 << 14, c.ctx);
    EXPECT_EQ(c.answer, ref.dist);
  }
}

TEST(Stepping, PullRoundsOnStarStayExact) {
  const Ref ref = make_ref(gen::star_hub(6000, 0.93, 0.01, WeightScheme::gap(), 9));
  Ctx c(4, ref.graph);
  const auto r = stepping_sssp(ref.graph, ref.source, SteppingKind::kDeltaStar,
                               32, 1 << 14, c.ctx);
  EXPECT_EQ(c.answer, ref.dist);
}

TEST(Stepping, RegressionSettledBoundIsFrontierMinNotThreshold) {
  // Regression: rho-stepping with a small frontier sets threshold = inf
  // ("take everything"); an earlier version advanced the settled bound to
  // the *threshold*, so the following pull round skipped every vertex and
  // the run terminated with unreached vertices. The settled bound must be
  // the frontier minimum. This configuration (undirected, dense enough to
  // trigger pulls, frontier below rho) reproduced the bug deterministically.
  const Ref ref = make_ref(gen::erdos_renyi(3000, 8.0, WeightScheme::gap(), 16));
  Ctx c(1, ref.graph);
  const auto r = stepping_sssp(ref.graph, ref.source, SteppingKind::kRho,
                               1, /*rho=*/1 << 14, c.ctx);
  EXPECT_EQ(c.answer, ref.dist);
  // Every vertex in the source's component must be reached.
  VertexId reached = 0;
  for (const Distance d : c.answer) reached += d != kInfDist;
  EXPECT_GT(reached, ref.graph.num_vertices() * 9 / 10);
}

TEST(Stepping, TinyRhoStillTerminates) {
  // rho=1 processes ~one vertex per threshold round: maximal round count,
  // exercises the deferral path heavily.
  const Ref ref = make_ref(gen::erdos_renyi(500, 6.0, WeightScheme::gap(), 10));
  Ctx c(3, ref.graph);
  const auto r =
      stepping_sssp(ref.graph, ref.source, SteppingKind::kRho, 1, 1, c.ctx);
  EXPECT_EQ(c.answer, ref.dist);
}

TEST(Stepping, HugeDeltaStarBecomesBellmanFordLike) {
  const Ref ref = make_ref(gen::grid(30, 30, WeightScheme::gap(), 11));
  Ctx c(4, ref.graph);
  const auto r = stepping_sssp(ref.graph, ref.source, SteppingKind::kDeltaStar,
                               kInfDist / 2, 1 << 14, c.ctx);
  EXPECT_EQ(c.answer, ref.dist);
}

// --- GAP delta-stepping -------------------------------------------------------

TEST(DeltaStepping, BucketFusionPreservesResultsAndCutsRounds) {
  const Ref ref = make_ref(gen::grid(60, 60, WeightScheme::gap(), 12));
  Ctx fused_ctx(4, ref.graph);
  Ctx plain_ctx(4, ref.graph);
  const auto fused = delta_stepping(ref.graph, ref.source, 64, fused_ctx.ctx);
  // Julienne runs the same Δ-buckets with one synchronous step per bucket
  // round: the unfused round structure GAP's fusion is measured against.
  const auto plain = julienne_sssp(ref.graph, ref.source, 64, plain_ctx.ctx);
  EXPECT_EQ(fused_ctx.answer, ref.dist);
  EXPECT_EQ(plain_ctx.answer, ref.dist);
  // Fusion's whole point: fewer synchronous steps on road-like graphs.
  EXPECT_LT(fused.metrics.counter(CounterId::kRounds),
            plain.metrics.counter(CounterId::kRounds));
}

TEST(DeltaStepping, BarrierTimeIsRecorded) {
  const Ref ref = make_ref(gen::grid(40, 40, WeightScheme::gap(), 13));
  Ctx c(4, ref.graph);
  const auto r = delta_stepping(ref.graph, ref.source, 32, c.ctx);
  EXPECT_GT(r.metrics.counter(CounterId::kBarrierNs), 0u);
  EXPECT_GT(r.metrics.counter(CounterId::kRounds), 0u);
}

TEST(DeltaStepping, DeltaZeroIsRejectedAtTheFrontDoor) {
  // delta==0 used to be silently coerced to 1 inside each algorithm; the
  // nested-options redesign rejects it once, up front, for all of them.
  const Ref ref = make_ref(gen::erdos_renyi(500, 4.0, WeightScheme::gap(), 14));
  SsspOptions options;
  options.algo = Algorithm::kDeltaStepping;
  options.threads = 2;
  options.delta = 0;
  EXPECT_THROW(Solver(options).solve(ref.graph, ref.source),
               InvalidOptionsError);
}

// --- OBIM / Galois-style -----------------------------------------------------

TEST(Obim, TinyChunksForceGlobalBagTraffic) {
  // chunk_size=2 overflows local chunks constantly; all coordination goes
  // through the global bags.
  const Ref ref = make_ref(gen::rmat(10, 8192, 0.57, 0.19, 0.19,
                                     WeightScheme::gap(), 15, true));
  Ctx c(6, ref.graph);
  const auto r = obim_sssp(ref.graph, ref.source, 8, /*chunk_size=*/2, c.ctx);
  EXPECT_EQ(c.answer, ref.dist);
}

TEST(Obim, HugeChunksKeepWorkLocal) {
  const Ref ref = make_ref(gen::rmat(10, 8192, 0.57, 0.19, 0.19,
                                     WeightScheme::gap(), 16, true));
  Ctx c(4, ref.graph);
  const auto r =
      obim_sssp(ref.graph, ref.source, 8, /*chunk_size=*/4096, c.ctx);
  EXPECT_EQ(c.answer, ref.dist);
}

TEST(Obim, DeepPriorityLevelsOnChains) {
  const Ref ref = make_ref(gen::chain_forest(2, 400, WeightScheme::gap(), 17));
  Ctx c(3, ref.graph);
  const auto r = obim_sssp(ref.graph, ref.source, 1, 128, c.ctx);
  EXPECT_EQ(c.answer, ref.dist);
}

// --- MultiQueue Dijkstra ------------------------------------------------------

TEST(MqDijkstra, ParameterMatrixStaysExact) {
  const Ref ref = make_ref(gen::erdos_renyi(2000, 8.0, WeightScheme::gap(), 18));
  for (const int c : {1, 4}) {
    for (const int stickiness : {1, 16}) {
      for (const int buffer : {1, 32}) {
        Ctx run(4, ref.graph);
        const auto r = mq_dijkstra(ref.graph, ref.source, c, stickiness, buffer,
                                   1, run.ctx);
        EXPECT_EQ(run.answer, ref.dist)
            << "c=" << c << " s=" << stickiness << " b=" << buffer;
      }
    }
  }
}

TEST(MqDijkstra, QueueOpTimeIsRecorded) {
  const Ref ref = make_ref(gen::erdos_renyi(2000, 8.0, WeightScheme::gap(), 19));
  Ctx c(2, ref.graph);
  const auto r = mq_dijkstra(ref.graph, ref.source, 2, 8, 16, 1, c.ctx);
  EXPECT_GT(r.metrics.counter(CounterId::kQueueOpNs), 0u);
}

// --- Bellman-Ford --------------------------------------------------------------

TEST(BellmanFord, NegativeFreeCyclesConverge) {
  // Dense cyclic graph: many re-insertions per round.
  const Ref ref = make_ref(gen::rmat(9, 8192, 0.5, 0.2, 0.2,
                                     WeightScheme::uniform(1, 8), 20, true));
  Ctx c(4, ref.graph);
  const auto r = bellman_ford(ref.graph, ref.source, c.ctx);
  EXPECT_EQ(c.answer, ref.dist);
  EXPECT_GT(r.metrics.counter(CounterId::kRounds), 1u);
}

}  // namespace
}  // namespace wasp
