// Behaviour-focused tests for the baseline implementations: each test
// forces a specific internal mechanism (Julienne's overflow re-bucketing,
// the steppers' super-sparse and pull rounds, GAP's bucket fusion, OBIM's
// global-bag migration, MultiQueue parameterizations) and checks exactness.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/suite.hpp"
#include "obs/metrics.hpp"
#include "sssp/bellman_ford.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/julienne.hpp"
#include "sssp/mq_dijkstra.hpp"
#include "sssp/obim.hpp"
#include "sssp/sssp.hpp"
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
/// its own team, registry and all-kInfDist distance array for `g` (the
/// registry is only reset by the dispatcher; reusing one across calls would
/// accumulate counters).
struct Ctx {
  ThreadTeam team;
  obs::MetricsRegistry metrics;
  AtomicDistances dist;
  RunContext ctx;

  Ctx(int threads, const Graph& g)
      : team(threads), metrics(threads), dist(g.num_vertices()),
        ctx{team, metrics} {
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
  // unchanged.
  // `option` is gap.bucket_fusion for GAP, stepping.direction_optimize for
  // the rest.
  struct Row {
    Algorithm algo;
    bool option;
    WorkCounts road;
    WorkCounts power_law;
  };
  const Row rows[] = {
      {Algorithm::kBellmanFord, false, {161, 140863, 47686}, {11, 451526, 23379}},
      {Algorithm::kDeltaStepping, true, {152, 44251, 13597}, {12, 646041, 21328}},
      {Algorithm::kDeltaStepping, false, {449, 44251, 13597}, {25, 646041, 21328}},
      {Algorithm::kJulienne, true, {465, 44953, 13597}, {26, 867932, 11357}},
      {Algorithm::kJulienne, false, {465, 44953, 13597}, {25, 646041, 21328}},
      {Algorithm::kDeltaStar, true, {295, 40623, 13590}, {20, 895886, 11396}},
      {Algorithm::kRhoStepping, true, {136, 469112, 72004}, {11, 723728, 12278}},
      {Algorithm::kRadiusStepping, true, {194, 42333, 14479}, {12, 900120, 11357}},
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
    options.gap.bucket_fusion = row.option;
    options.stepping.direction_optimize = row.option;
    const SsspResult r = run_sssp(w.graph, w.source, options);
    EXPECT_EQ(r.dist, ref) << to_string(row.algo) << " on " << w.name;
    return WorkCounts{r.metrics.counter(CounterId::kRounds),
                      r.metrics.counter(CounterId::kRelaxations),
                      r.metrics.counter(CounterId::kUpdates)};
  };
  for (const Row& row : rows) {
    EXPECT_EQ(counts(road, road_ref, row, 64), row.road)
        << to_string(row.algo) << " option=" << row.option << " on road";
    EXPECT_EQ(counts(power_law, power_law_ref, row, 32), row.power_law)
        << to_string(row.algo) << " option=" << row.option << " on power law";
  }
}

// --- Julienne: bounded window + overflow -----------------------------------

TEST(Julienne, OverflowRebucketingOnDeepGraphs) {
  // Long chain with delta=1: distances reach ~250*2048 so the 32-bucket
  // window overflows thousands of times.
  const Ref ref = make_ref(gen::chain_forest(1, 2048, WeightScheme::gap(), 5));
  Ctx c(3, ref.graph);
  const auto r = julienne_sssp(ref.graph, ref.source, /*delta=*/1,
                               /*direction_optimize=*/false, c.ctx);
  EXPECT_EQ(r.dist, ref.dist);
  // Many more rounds than buckets in one window.
  EXPECT_GT(r.metrics.counter(CounterId::kRounds), 32u);
}

TEST(Julienne, PullRoundsFireOnStarAndStayExact) {
  const Ref ref = make_ref(gen::star_hub(4000, 0.93, 0.01, WeightScheme::gap(), 6));
  Ctx with(4, ref.graph);
  Ctx without(4, ref.graph);
  const auto with_pull = julienne_sssp(ref.graph, ref.source, 64,
                                       /*direction_optimize=*/true, with.ctx);
  const auto without_pull =
      julienne_sssp(ref.graph, ref.source, 64, /*direction_optimize=*/false,
                    without.ctx);
  EXPECT_EQ(with_pull.dist, ref.dist);
  EXPECT_EQ(without_pull.dist, ref.dist);
}

TEST(Julienne, WideDeltaCollapsesToFewRounds) {
  const Ref ref = make_ref(gen::erdos_renyi(2000, 8.0, WeightScheme::gap(), 7));
  Ctx c(2, ref.graph);
  const auto r = julienne_sssp(ref.graph, ref.source, 1u << 20, false, c.ctx);
  EXPECT_EQ(r.dist, ref.dist);
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
    const auto r = stepping_sssp(ref.graph, ref.source, kind, 64, 1 << 14,
                                 true, c.ctx);
    EXPECT_EQ(r.dist, ref.dist);
  }
}

TEST(Stepping, PullRoundsOnStarStayExact) {
  const Ref ref = make_ref(gen::star_hub(6000, 0.93, 0.01, WeightScheme::gap(), 9));
  for (const bool pull : {true, false}) {
    Ctx c(4, ref.graph);
    const auto r = stepping_sssp(ref.graph, ref.source, SteppingKind::kDeltaStar,
                                 32, 1 << 14, pull, c.ctx);
    EXPECT_EQ(r.dist, ref.dist) << "pull=" << pull;
  }
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
                               1, /*rho=*/1 << 14, /*pull=*/true, c.ctx);
  EXPECT_EQ(r.dist, ref.dist);
  // Every vertex in the source's component must be reached.
  VertexId reached = 0;
  for (const Distance d : r.dist) reached += d != kInfDist;
  EXPECT_GT(reached, ref.graph.num_vertices() * 9 / 10);
}

TEST(Stepping, TinyRhoStillTerminates) {
  // rho=1 processes ~one vertex per threshold round: maximal round count,
  // exercises the deferral path heavily.
  const Ref ref = make_ref(gen::erdos_renyi(500, 6.0, WeightScheme::gap(), 10));
  Ctx c(3, ref.graph);
  const auto r = stepping_sssp(ref.graph, ref.source, SteppingKind::kRho, 1, 1,
                               true, c.ctx);
  EXPECT_EQ(r.dist, ref.dist);
}

TEST(Stepping, HugeDeltaStarBecomesBellmanFordLike) {
  const Ref ref = make_ref(gen::grid(30, 30, WeightScheme::gap(), 11));
  Ctx c(4, ref.graph);
  const auto r = stepping_sssp(ref.graph, ref.source, SteppingKind::kDeltaStar,
                               kInfDist / 2, 1 << 14, false, c.ctx);
  EXPECT_EQ(r.dist, ref.dist);
}

// --- GAP delta-stepping -------------------------------------------------------

TEST(DeltaStepping, BucketFusionPreservesResultsAndCutsRounds) {
  const Ref ref = make_ref(gen::grid(60, 60, WeightScheme::gap(), 12));
  Ctx fused_ctx(4, ref.graph);
  Ctx plain_ctx(4, ref.graph);
  const auto fused =
      delta_stepping(ref.graph, ref.source, 64, true, fused_ctx.ctx);
  const auto plain =
      delta_stepping(ref.graph, ref.source, 64, false, plain_ctx.ctx);
  EXPECT_EQ(fused.dist, ref.dist);
  EXPECT_EQ(plain.dist, ref.dist);
  // Fusion's whole point: fewer synchronous steps on road-like graphs.
  EXPECT_LT(fused.metrics.counter(CounterId::kRounds),
            plain.metrics.counter(CounterId::kRounds));
}

TEST(DeltaStepping, BarrierTimeIsRecorded) {
  const Ref ref = make_ref(gen::grid(40, 40, WeightScheme::gap(), 13));
  Ctx c(4, ref.graph);
  const auto r = delta_stepping(ref.graph, ref.source, 32, true, c.ctx);
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
  EXPECT_THROW(run_sssp(ref.graph, ref.source, options), InvalidOptionsError);
}

// --- OBIM / Galois-style -----------------------------------------------------

TEST(Obim, TinyChunksForceGlobalBagTraffic) {
  // chunk_size=2 overflows local chunks constantly; all coordination goes
  // through the global bags.
  const Ref ref = make_ref(gen::rmat(10, 8192, 0.57, 0.19, 0.19,
                                     WeightScheme::gap(), 15, true));
  Ctx c(6, ref.graph);
  const auto r = obim_sssp(ref.graph, ref.source, 8, /*chunk_size=*/2, c.ctx);
  EXPECT_EQ(r.dist, ref.dist);
}

TEST(Obim, HugeChunksKeepWorkLocal) {
  const Ref ref = make_ref(gen::rmat(10, 8192, 0.57, 0.19, 0.19,
                                     WeightScheme::gap(), 16, true));
  Ctx c(4, ref.graph);
  const auto r =
      obim_sssp(ref.graph, ref.source, 8, /*chunk_size=*/4096, c.ctx);
  EXPECT_EQ(r.dist, ref.dist);
}

TEST(Obim, DeepPriorityLevelsOnChains) {
  const Ref ref = make_ref(gen::chain_forest(2, 400, WeightScheme::gap(), 17));
  Ctx c(3, ref.graph);
  const auto r = obim_sssp(ref.graph, ref.source, 1, 128, c.ctx);
  EXPECT_EQ(r.dist, ref.dist);
}

// --- radius-stepping (extension baseline) ------------------------------------

TEST(RadiusStepping, RadiiAreKNearestDistances) {
  // Path 0-1-2-3 with weights 2,3,4: r_2(0) = dist to 2nd nearest = 5.
  const Graph g =
      GraphBuilder()
          .edges(4, {{0, 1, 2}, {1, 2, 3}, {2, 3, 4}})
          .undirected()
          .build();
  ThreadTeam team(2);
  const auto r1 = compute_radii(g, 1, team);
  EXPECT_EQ(r1[0], 2u);   // nearest neighbour of 0 is 1 at distance 2
  EXPECT_EQ(r1[1], 2u);   // nearest of 1 is 0
  const auto r2 = compute_radii(g, 2, team);
  EXPECT_EQ(r2[0], 5u);   // 2nd nearest of 0 is 2 at distance 5
  EXPECT_EQ(r2[3], 7u);   // 2nd nearest of 3 is 1 at 4+3=7
}

TEST(RadiusStepping, MatchesDijkstraAcrossK) {
  const Ref ref = make_ref(gen::erdos_renyi(2000, 8.0, WeightScheme::gap(), 22));
  for (const std::uint32_t k : {1u, 4u, 64u}) {
    Ctx c(4, ref.graph);
    const auto radii = compute_radii(ref.graph, k, c.team);
    const auto r = stepping_sssp(ref.graph, ref.source, SteppingKind::kRadius,
                                 1, 1, true, c.ctx, &radii);
    EXPECT_EQ(r.dist, ref.dist) << "k=" << k;
  }
}

TEST(RadiusStepping, FrontEndDispatch) {
  const Ref ref = make_ref(gen::grid(30, 30, WeightScheme::gap(), 23));
  SsspOptions options;
  options.algo = Algorithm::kRadiusStepping;
  options.threads = 3;
  options.stepping.radius_k = 8;
  EXPECT_EQ(run_sssp(ref.graph, ref.source, options).dist, ref.dist);
  EXPECT_EQ(parse_algorithm("radius"), Algorithm::kRadiusStepping);
}

TEST(RadiusStepping, RequiresRadii) {
  const Ref ref = make_ref(gen::grid(5, 5, WeightScheme::gap(), 24));
  Ctx c(1, ref.graph);
  EXPECT_THROW(stepping_sssp(ref.graph, ref.source, SteppingKind::kRadius, 1,
                             1, false, c.ctx, nullptr),
               std::invalid_argument);
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
        EXPECT_EQ(r.dist, ref.dist)
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
  EXPECT_EQ(r.dist, ref.dist);
  EXPECT_GT(r.metrics.counter(CounterId::kRounds), 1u);
}

}  // namespace
}  // namespace wasp
