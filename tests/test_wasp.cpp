// Wasp-specific tests: each §4.4 optimization individually (the Figure 7
// ablation space), each §4.2 steal policy, synthetic NUMA topologies,
// stress runs under heavy oversubscription, instrumentation, and idle
// parking (narrow runs where helpers have nothing to steal).
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/solver.hpp"
#include "sssp/sssp.hpp"
#include "sssp/validate.hpp"
#include "sssp/wasp.hpp"
#include "support/cancel.hpp"
#include "support/errors.hpp"
#include "support/numa.hpp"
#include "support/timer.hpp"

namespace wasp {
namespace {

struct Fixture {
  Graph graph;
  VertexId source;
  std::vector<Distance> reference;
};

Fixture make_fixture(const Graph& g) {
  Fixture f;
  f.graph = g;
  f.source = pick_source_in_largest_component(f.graph, 7);
  f.reference = dijkstra(f.graph, f.source).dist;
  return f;
}

const Fixture& star_fixture() {
  static const Fixture f =
      make_fixture(gen::star_hub(5000, 0.93, 0.01, WeightScheme::gap(), 21));
  return f;
}

const Fixture& grid_fixture() {
  static const Fixture f = make_fixture(gen::grid(50, 50, WeightScheme::gap(), 22));
  return f;
}

const Fixture& rmat_fixture() {
  static const Fixture f = make_fixture(
      gen::rmat(12, 1 << 15, 0.57, 0.19, 0.19, WeightScheme::gap(), 23, true));
  return f;
}

void expect_correct(const Fixture& f, const SsspOptions& options,
                    const std::string& label) {
  const SsspResult r = run_sssp(f.graph, f.source, options);
  std::string message;
  ASSERT_TRUE(distances_equal(f.reference, r.dist, &message))
      << label << ": " << message;
}

// --- optimization toggles (all 8 combinations, the Fig. 7 space) ----------

using OptParam = std::tuple<bool, bool, bool>;  // LP, BR, ND

std::string opt_param_name(const testing::TestParamInfo<OptParam>& info) {
  const auto [lp, br, nd] = info.param;
  std::string name;
  name += lp ? "LP" : "lp";
  name += br ? "BR" : "br";
  name += nd ? "ND" : "nd";
  return name;
}

class WaspOptimizations : public testing::TestWithParam<OptParam> {};

TEST_P(WaspOptimizations, CorrectOnStarGraph) {
  const auto [lp, br, nd] = GetParam();
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 4;
  options.delta = 8;
  options.wasp.leaf_pruning = lp;
  options.wasp.bidirectional_relaxation = br;
  options.wasp.neighborhood_decomposition = nd;
  options.wasp.theta = 128;  // hub degree ~4650 >> theta: decomposition fires
  expect_correct(star_fixture(), options, "star");
}

TEST_P(WaspOptimizations, CorrectOnGrid) {
  const auto [lp, br, nd] = GetParam();
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 4;
  options.delta = 32;
  options.wasp.leaf_pruning = lp;
  options.wasp.bidirectional_relaxation = br;
  options.wasp.neighborhood_decomposition = nd;
  expect_correct(grid_fixture(), options, "grid");
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, WaspOptimizations,
    testing::Combine(testing::Bool(), testing::Bool(), testing::Bool()),
    opt_param_name);

// --- steal policies (§4.2 ablation) ---------------------------------------

class WaspStealPolicies : public testing::TestWithParam<StealPolicy> {};

TEST_P(WaspStealPolicies, CorrectOnRmat) {
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 6;
  options.delta = 1;
  options.wasp.steal_policy = GetParam();
  options.wasp.steal_retries = 4;
  expect_correct(rmat_fixture(), options, "rmat");
}

TEST_P(WaspStealPolicies, CorrectOnGridManyThreads) {
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 12;  // heavy oversubscription on small machines
  options.delta = 64;
  options.wasp.steal_policy = GetParam();
  options.wasp.steal_retries = 0;  // no retries: maximally racy termination
  expect_correct(grid_fixture(), options, "grid");
}

INSTANTIATE_TEST_SUITE_P(Policies, WaspStealPolicies,
                         testing::Values(StealPolicy::kPriorityNuma,
                                         StealPolicy::kRandom,
                                         StealPolicy::kTwoChoice),
                         [](const testing::TestParamInfo<StealPolicy>& pinfo) {
                           switch (pinfo.param) {
                             case StealPolicy::kPriorityNuma: return "priority";
                             case StealPolicy::kRandom: return "random";
                             case StealPolicy::kTwoChoice: return "twochoice";
                           }
                           return "unknown";
                         });

// --- chunk capacities (compile-time instantiations) ------------------------

class WaspChunkCapacity : public testing::TestWithParam<std::uint32_t> {};

TEST_P(WaspChunkCapacity, AllInstantiationsCorrect) {
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 4;
  options.delta = 1;
  options.wasp.chunk_capacity = GetParam();
  expect_correct(rmat_fixture(),
                 options, "chunk capacity " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Capacities, WaspChunkCapacity,
                         testing::Values(16u, 32u, 64u, 128u, 256u));

TEST(WaspChunkCapacityErrors, RejectsUnsupportedCapacity) {
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 1;
  options.wasp.chunk_capacity = 77;
  const Fixture& f = grid_fixture();
  EXPECT_THROW(run_sssp(f.graph, f.source, options), std::invalid_argument);
}

// --- synthetic NUMA topologies ---------------------------------------------

TEST(WaspNuma, SyntheticTwoSocketTopology) {
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 8;
  options.delta = 1;
  options.wasp.topology = std::make_shared<NumaTopology>(
      NumaTopology::synthetic(2, 2, 2));  // 8 CPUs = 8 threads, 4 nodes
  expect_correct(rmat_fixture(), options, "rmat on synthetic NUMA");
}

TEST(WaspNuma, MoreThreadsThanSyntheticCpus) {
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 10;
  options.delta = 16;
  options.wasp.topology =
      std::make_shared<NumaTopology>(NumaTopology::synthetic(2, 1, 2));
  expect_correct(grid_fixture(), options, "grid oversubscribed NUMA");
}

// --- repeated stress: racy termination must never drop work ---------------

TEST(WaspStress, RepeatedRunsStayCorrect) {
  const Fixture& f = rmat_fixture();
  for (int run = 0; run < 10; ++run) {
    SsspOptions options;
    options.algo = Algorithm::kWasp;
    options.threads = 8;
    options.delta = 1;
    options.seed = static_cast<std::uint64_t>(run);
    expect_correct(f, options, "stress run " + std::to_string(run));
  }
}

TEST(WaspStress, ChainGraphDeepBuckets) {
  // Long chains with delta=1 create ~75k consecutive priority levels —
  // stresses bucket-list growth and pour.
  const Fixture f =
      make_fixture(gen::chain_forest(2, 500, WeightScheme::gap(), 29));
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 4;
  options.delta = 1;
  expect_correct(f, options, "chain delta=1");
}

TEST(WaspStress, LargeWeightOutlierGrowsBucketsGeometrically) {
  // One edge orders of magnitude heavier than the rest: with delta=1 its
  // relaxation lands in a sparse level ~200k buckets above everything else,
  // exercising BucketList::at's grow-straight-to-bit_ceil(level+1) path (a
  // doubling-from-current-size loop re-copies the list once per step).
  Graph g = gen::grid(40, 40, WeightScheme::uniform(1, 16), 31);
  std::vector<Edge> edges;
  for (VertexId u = 0; u < g.num_vertices(); ++u)
    for (const WEdge& e : g.out_neighbors(u)) edges.push_back({u, e.dst, e.w});
  // Attach an outlier vertex reachable only over the heavy edge.
  const VertexId outlier = g.num_vertices();
  edges.push_back({0, outlier, 200'000});
  edges.push_back({outlier, 0, 200'000});
  const Fixture f =
      make_fixture(Graph::from_edges(outlier + 1, edges, /*undirected=*/false));

  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 4;
  options.delta = 1;
  expect_correct(f, options, "weight outlier delta=1");
}

// --- instrumentation -------------------------------------------------------

TEST(WaspStats, StealsHappenWithManyThreads) {
  // A star hub with neighborhood decomposition: the hub's ~120k-edge
  // adjacency is split into ~120 range chunks that sit in the owner's deque
  // while it processes them one by one — a wide window in which other
  // workers can steal, even on a single-core machine where threads only
  // interleave via preemption.
  const Fixture f =
      make_fixture(gen::star_hub(1 << 17, 0.93, 0.01, WeightScheme::gap(), 31));
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 8;
  options.delta = 16;
  options.wasp.theta = 1024;
  // On a single-core machine a successful steal depends on the owner being
  // preempted mid-bucket; retry several runs before concluding anything.
  std::uint64_t steals = 0;
  std::uint64_t attempts = 0;
  for (int attempt = 0; attempt < 15 && steals == 0; ++attempt) {
    const SsspResult r = run_sssp(f.graph, f.source, options);
    steals = r.stats.steals;
    attempts = r.stats.steal_attempts;
    EXPECT_GT(r.stats.relaxations, 0u);
    std::string message;
    ASSERT_TRUE(distances_equal(f.reference, r.dist, &message)) << message;
  }
  EXPECT_GT(attempts, 0u);
  if (steals == 0 && hardware_threads() == 1) {
    // With one hardware thread, a run short enough to fit in a scheduler
    // timeslice can legitimately complete before any worker wakes. The
    // stealing machinery itself is covered deterministically by
    // DequeStress.* and WaspStealPolicies.*.
    GTEST_SKIP() << "no preemption observed on a single-core machine";
  }
  EXPECT_GT(steals, 0u);
}

TEST(WaspStats, SingleThreadNeverSteals) {
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 1;
  options.delta = 16;
  const Fixture& f = grid_fixture();
  const SsspResult r = run_sssp(f.graph, f.source, options);
  EXPECT_EQ(r.stats.steals, 0u);
  std::string message;
  EXPECT_TRUE(distances_equal(f.reference, r.dist, &message)) << message;
}

TEST(WaspLeafPruning, LeavesGetFinalDistances) {
  // Leaf pruning must still produce exact distances for the leaves
  // themselves (they are relaxed, just never scheduled).
  const Fixture& f = star_fixture();
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 4;
  options.delta = 4;
  options.wasp.leaf_pruning = true;
  const SsspResult r = run_sssp(f.graph, f.source, options);
  const auto leaf = compute_leaf_bitmap(f.graph);
  for (VertexId v = 0; v < f.graph.num_vertices(); ++v) {
    if (leaf[v]) {
      ASSERT_EQ(r.dist[v], f.reference[v]) << "leaf " << v;
    }
  }
}

TEST(WaspStats, OccupancyCountersPopulated) {
  // With several workers and a sparse graph there is always some stealing
  // and some terminal idling; both phase timers must be non-zero and the
  // stale-skip counter must register the redundant entries delta
  // coarsening creates.
  const Fixture& f = grid_fixture();
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 6;
  options.delta = 1024;
  const SsspResult r = run_sssp(f.graph, f.source, options);
  EXPECT_GT(r.stats.steal_ns + r.stats.idle_ns, 0u);
  std::string message;
  EXPECT_TRUE(distances_equal(f.reference, r.dist, &message)) << message;
}

// --- idle parking: helpers with nothing to steal block, not spin ---------

using obs::CounterId;

/// Undirected path 0-1-...-(n-1). A solve from vertex 0 is one chain of
/// work: every vertex hands exactly one successor on, so helpers find
/// nothing to steal for the whole run.
Graph long_path(VertexId n) {
  std::vector<Edge> edges;
  edges.reserve(n - 1);
  for (VertexId u = 0; u + 1 < n; ++u)
    edges.push_back(Edge{u, u + 1, 1 + u % 17});
  return GraphBuilder().edges(n, std::move(edges)).undirected(true).build();
}

const Fixture& path_fixture() {
  static const Fixture f = [] {
    Fixture fx;
    fx.graph = long_path(400'000);
    fx.source = 0;
    fx.reference = dijkstra(fx.graph, 0).dist;
    return fx;
  }();
  return f;
}

/// Four threads and a delta wider than the path's longest distance: every
/// vertex lands in level 0 of worker 0's current bucket, so the chain never
/// passes through a deque and the three helpers stay idle throughout.
SsspOptions narrow_options() {
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 4;
  options.delta = Weight{1} << 28;
  return options;
}

/// The narrow run cut into two fragments mid-path: worker 0 walks the first
/// half and hands the walk over through a remote batch to a worker of the
/// second fragment, so two workers walk in turn and the rest stay idle.
SsspOptions two_fragment_narrow_options() {
  SsspOptions options = narrow_options();
  options.wasp.topology =
      std::make_shared<const NumaTopology>(NumaTopology::synthetic(1, 2, 1));
  options.wasp.partition.enabled = true;
  options.wasp.partition.num_fragments = 2;
  return options;
}

/// Holds worker 0 at its first progress report, its curr at a real level,
/// until every helper has spent its spin budget and gone quiet (parked) and
/// `release_at` has passed, or until the token is cancelled or `cap` runs
/// out. A helper's rounds show up as on_steal probes, one per peer per
/// sweep; a parked helper probes nothing. Waiting on that signal instead of
/// a fixed sleep keeps the tests exact on an oversubscribed machine, where
/// every spin round yields a whole scheduler slice.
class HoldUntilHelpersPark final : public obs::RunObserver {
 public:
  using Clock = std::chrono::steady_clock;

  HoldUntilHelpersPark(int threads, Clock::time_point release_at,
                       const CancelToken* token = nullptr)
      : threads_(threads),
        probes_(new std::atomic<std::uint64_t>[static_cast<std::size_t>(
            threads)]()),
        release_at_(release_at),
        token_(token) {}

  void on_steal(int thief, int, bool) override {
    probes_[static_cast<std::size_t>(thief)].fetch_add(
        1, std::memory_order_relaxed);
  }

  void on_progress(int tid, std::uint64_t) override {
    if (tid != 0 || held_) return;
    held_ = true;
    // Each round that sees worker 0 working sweeps every peer once; a
    // helper parks after 64 such rounds.
    const auto spent = static_cast<std::uint64_t>(64 * (threads_ - 1));
    const auto cap = Clock::now() + std::chrono::seconds(10);
    std::uint64_t last_total = 0;
    auto last_change = Clock::now();
    while (Clock::now() < cap &&
           (token_ == nullptr || !token_->cancel_requested())) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      std::uint64_t total = 0;
      bool all_spent = true;
      for (int t = 1; t < threads_; ++t) {
        const std::uint64_t c =
            probes_[static_cast<std::size_t>(t)].load(std::memory_order_relaxed);
        total += c;
        all_spent = all_spent && c >= spent;
      }
      const auto now = Clock::now();
      if (total != last_total) {
        last_total = total;
        last_change = now;
      }
      quiet_ = all_spent && now - last_change >= std::chrono::milliseconds(50);
      if (quiet_ && now >= release_at_) return;
    }
  }

  /// True when every helper had spent its budget and stopped probing.
  [[nodiscard]] bool helpers_went_quiet() const { return quiet_; }

 private:
  const int threads_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> probes_;
  const Clock::time_point release_at_;
  const CancelToken* token_;
  bool held_ = false;   // worker 0 only
  bool quiet_ = false;  // written by worker 0, read after the solve
};

TEST(WaspPark, NarrowRunIsExactAndParksIdleHelpers) {
  const Fixture& f = path_fixture();
  Solver solver(narrow_options());
  HoldUntilHelpersPark hold(solver.team().size(),
                            HoldUntilHelpersPark::Clock::now());
  solver.set_observer(&hold);
  const SsspResult r = solver.solve(f.graph, f.source);
  std::string message;
  EXPECT_TRUE(distances_equal(f.reference, r.dist, &message)) << message;
  EXPECT_TRUE(hold.helpers_went_quiet());
  EXPECT_GE(r.metrics.counter(CounterId::kWorkerParks), 1u);
}

TEST(WaspPark, TwoFragmentNarrowRunIsExactAndParks) {
  // The idle workers of both fragments park while a walker works; a
  // published batch wakes the second fragment and the votes wake the rest.
  // Solves repeat until one reports a park (each is a few milliseconds).
  const Fixture& f = path_fixture();
  Solver solver(two_fragment_narrow_options());
  std::uint64_t parks = 0;
  Timer wall;
  do {
    const SsspResult r = solver.solve(f.graph, f.source);
    std::string message;
    ASSERT_TRUE(distances_equal(f.reference, r.dist, &message)) << message;
    EXPECT_GT(r.metrics.counter(CounterId::kRemoteBatches), 0u);
    parks += r.metrics.counter(CounterId::kWorkerParks);
  } while (parks == 0 && wall.seconds() < 10.0);
  EXPECT_GE(parks, 1u);
}

TEST(WaspPark, RoadGridRunIsExact) {
  // A wide run: every worker has work most of the time, and the ones that
  // run dry are woken by pushes that leave a surplus.
  const Fixture f = make_fixture(gen::grid(200, 200, WeightScheme::gap(), 41));
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 4;
  options.delta = 8;
  Solver solver(options);
  for (int run = 0; run < 3; ++run) {
    const SsspResult r = solver.solve(f.graph, f.source);
    std::string message;
    ASSERT_TRUE(distances_equal(f.reference, r.dist, &message)) << message;
  }
}

TEST(WaspPark, DeadlineCancelWithParkedHelpersResolvesAsDeadline) {
  const Fixture& f = path_fixture();
  Solver solver(narrow_options());
  // Worker 0 is held until its helpers have parked and the deadline has
  // passed; its next deadline poll then cancels the run. A helper still
  // spinning at the deadline would cancel it from its own poll instead.
  CancelToken token;
  const auto deadline =
      HoldUntilHelpersPark::Clock::now() + std::chrono::milliseconds(500);
  token.set_deadline(deadline);
  HoldUntilHelpersPark hold(solver.team().size(),
                            deadline + std::chrono::milliseconds(5), &token);
  solver.options().cancel = &token;
  solver.set_observer(&hold);
  try {
    (void)solver.solve(f.graph, f.source);
    FAIL() << "expected SolveCancelledError";
  } catch (const SolveCancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::kDeadline);
  }
  const std::uint64_t parks =
      solver.metrics().snapshot().counter(CounterId::kWorkerParks);

  // The cancelling worker woke the parked helpers on its way out; they
  // left through their own cancel polls, so the team is free again.
  solver.options().cancel = nullptr;
  solver.set_observer(nullptr);
  const SsspResult r = solver.solve(f.graph, f.source);
  std::string message;
  EXPECT_TRUE(distances_equal(f.reference, r.dist, &message)) << message;

  if (!hold.helpers_went_quiet())
    GTEST_SKIP() << "helpers were still spinning at the deadline "
                    "(oversubscribed machine)";
  EXPECT_GE(parks, 1u);
}

double thread_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

TEST(WaspPark, ParkedHelpersBurnLittleCpuOnANarrowRun) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    (defined(WASP_VERIFY_ENABLED) && WASP_VERIFY_ENABLED)
  GTEST_SKIP() << "CPU-time bound is meaningless under instrumentation";
#endif
  const Fixture& f = path_fixture();
  for (const int fragments : {1, 2}) {
    Solver solver(fragments == 1 ? narrow_options()
                                 : two_fragment_narrow_options());
    const int p = solver.team().size();
    // Team participants keep their threads across jobs, so a sampling job
    // before and after reads each participant's own CPU clock.
    std::vector<double> before(static_cast<std::size_t>(p));
    std::vector<double> after(static_cast<std::size_t>(p));
    solver.team().run([&](int tid) {
      before[static_cast<std::size_t>(tid)] = thread_cpu_seconds();
    });
    // At least 50 ms of narrow solves (each one is a few ms to tens of ms).
    Timer wall;
    do {
      const SsspResult r = solver.solve(f.graph, f.source);
      std::string message;
      ASSERT_TRUE(distances_equal(f.reference, r.dist, &message)) << message;
    } while (wall.seconds() < 0.05);
    const double wall_s = wall.seconds();
    solver.team().run([&](int tid) {
      after[static_cast<std::size_t>(tid)] = thread_cpu_seconds();
    });
    // Participant 0 (this thread) walks the path, or its first half; with
    // two fragments one helper walks the second half, so the busiest
    // helper is exempt. The others spin a few dozen rounds per solve and
    // then sleep until a publish, vote or exit wakes them.
    std::vector<double> cpu;
    for (int t = 1; t < p; ++t)
      cpu.push_back(after[static_cast<std::size_t>(t)] -
                    before[static_cast<std::size_t>(t)]);
    std::sort(cpu.begin(), cpu.end());
    if (fragments == 2) cpu.pop_back();
    for (const double c : cpu) {
      EXPECT_LT(c, wall_s / 4)
          << fragments << "-fragment run: a helper burned " << c * 1e3
          << " ms of CPU over a " << wall_s * 1e3 << " ms narrow run";
    }
  }
}

TEST(WaspValidate, PassesFixedPointValidation) {
  const Fixture& f = rmat_fixture();
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 4;
  options.delta = 2;
  const SsspResult r = run_sssp(f.graph, f.source, options);
  std::string message;
  EXPECT_TRUE(validate_sssp(f.graph, f.source, r.dist, &message)) << message;
}

}  // namespace
}  // namespace wasp
