// Tests for the run-lifecycle observability layer (src/obs/): observer
// callbacks fire with the documented counts, the trace recorder round-trips
// through the Chrome trace_event schema, the MetricsRegistry sharding
// discipline holds under the verify preset's happens-before model, and the
// work counters each algorithm reports are mutually consistent.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/trace.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/solver.hpp"
#include "sssp/validate.hpp"
#include "support/errors.hpp"
#include "verify/checked_atomic.hpp"
#include "verify/context.hpp"

namespace wasp {
namespace {

using obs::CounterId;
using obs::EventKind;
using obs::EventPhase;
using obs::GaugeId;
using obs::HistId;

/// Counts every hook invocation; thread-safe as the interface requires.
class CountingObserver final : public obs::RunObserver {
 public:
  void on_round(std::uint64_t /*round*/, std::uint64_t frontier) override {
    rounds.fetch_add(1, std::memory_order_relaxed);
    frontier_sum.fetch_add(frontier, std::memory_order_relaxed);
  }
  void on_steal(int /*thief*/, int /*victim*/, bool success) override {
    steals.fetch_add(1, std::memory_order_relaxed);
    if (success) steal_hits.fetch_add(1, std::memory_order_relaxed);
  }
  void on_termination(int /*tid*/) override {
    terminations.fetch_add(1, std::memory_order_relaxed);
  }
  void on_progress(int /*tid*/, std::uint64_t /*vertices*/) override {
    progress.fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<std::uint64_t> rounds{0};
  std::atomic<std::uint64_t> frontier_sum{0};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> steal_hits{0};
  std::atomic<std::uint64_t> terminations{0};
  std::atomic<std::uint64_t> progress{0};
};

Graph tiny_grid() { return gen::grid(30, 30, WeightScheme::gap(), 22); }

// --- observer callback counts ---------------------------------------------

TEST(RunObserver, WaspFiresTerminationOncePerWorkerAndStealPerAttempt) {
  const Graph g = tiny_grid();
  const VertexId src = pick_source_in_largest_component(g, 7);

  CountingObserver observer;
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 4;
  options.delta = 8;
  options.observer = &observer;
  const SsspResult r = Solver(options).solve(g, src);

  // Each worker's termination scan confirms quiescence exactly once.
  EXPECT_EQ(observer.terminations.load(), 4u);
  // on_steal fires per steal() attempt: the call count matches the
  // steal_attempts counter (the invariant wasp.cpp documents).
  EXPECT_EQ(observer.steals.load(), r.metrics.counter(CounterId::kStealAttempts));
  EXPECT_EQ(observer.steal_hits.load(), r.metrics.counter(CounterId::kSteals));
  // Wasp is asynchronous: no rounds.
  EXPECT_EQ(observer.rounds.load(), 0u);
  EXPECT_EQ(r.metrics.counter(CounterId::kRounds), 0u);

  // The run still computed correct distances with hooks installed.
  const auto expected = dijkstra(g, src).dist;
  std::string message;
  EXPECT_TRUE(distances_equal(expected, r.dist, &message)) << message;
}

TEST(RunObserver, RoundBaselinesFireOnRoundOncePerRound) {
  const Graph g = tiny_grid();
  const VertexId src = pick_source_in_largest_component(g, 7);

  for (const Algorithm algo :
       {Algorithm::kDeltaStepping, Algorithm::kJulienne, Algorithm::kDeltaStar,
        Algorithm::kRhoStepping, Algorithm::kBellmanFord}) {
    CountingObserver observer;
    SsspOptions options;
    options.algo = algo;
    options.threads = 3;
    options.delta = 8;
    options.observer = &observer;
    const SsspResult r = Solver(options).solve(g, src);

    // Participant 0 fires on_round once per round, the steppers'
    // super-sparse rounds included (the shared round end in
    // sssp/rounds.hpp), and barrier algorithms never steal.
    const std::uint64_t rounds = r.metrics.counter(CounterId::kRounds);
    EXPECT_GT(rounds, 0u) << to_string(algo);
    EXPECT_EQ(observer.rounds.load(), rounds) << to_string(algo);
    EXPECT_EQ(observer.steals.load(), 0u) << to_string(algo);
    // Frontier sizes flow into the kRoundFrontier histogram: one
    // observation per round.
    std::uint64_t hist_total = 0;
    for (std::size_t b = 0; b < obs::kHistBuckets; ++b)
      hist_total += r.metrics.hist_count(HistId::kRoundFrontier, b);
    EXPECT_EQ(hist_total, rounds) << to_string(algo);
  }
}

TEST(RunObserver, AsyncQueueAlgorithmsTerminateOncePerWorker) {
  const Graph g = tiny_grid();
  const VertexId src = pick_source_in_largest_component(g, 7);
  for (const Algorithm algo : {Algorithm::kMqDijkstra, Algorithm::kObim}) {
    CountingObserver observer;
    SsspOptions options;
    options.algo = algo;
    options.threads = 3;
    options.delta = 8;
    options.observer = &observer;
    Solver(options).solve(g, src);
    EXPECT_EQ(observer.terminations.load(), 3u) << to_string(algo);
  }
}

// --- trace recorder ---------------------------------------------------------

/// Minimal structural check of Chrome trace_event JSON: object with a
/// traceEvents array, balanced braces/brackets, no trailing comma.
void expect_chrome_trace_shape(const std::string& json) {
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{') << json.substr(0, 80);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos)
      << json.substr(0, 80);
  long braces = 0, brackets = 0;
  for (const char c : json) {
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_EQ(json.find(",]"), std::string::npos);
}

TEST(TraceRecorder, ManualEventsRoundTripThroughChromeSchema) {
  obs::TraceRecorder trace(2, 64);
  trace.begin(0, EventKind::kStealSweep, 1);
  trace.instant(0, EventKind::kStealAttempt, 1);
  trace.end(0, EventKind::kStealSweep, 0);
  trace.begin(1, EventKind::kTerminationScan);
  trace.end(1, EventKind::kTerminationScan, 1);

  std::ostringstream os;
  trace.write_chrome_trace(os);
  const std::string json = os.str();
  expect_chrome_trace_shape(json);

  if (obs::TraceRecorder::kEnabled) {
    const auto t0 = trace.events(0);
    ASSERT_EQ(t0.size(), 3u);
    EXPECT_EQ(t0[0].phase, EventPhase::kBegin);
    EXPECT_EQ(t0[2].phase, EventPhase::kEnd);
    // Timestamps are monotonic within a ring.
    EXPECT_LE(t0[0].ts_ns, t0[1].ts_ns);
    EXPECT_LE(t0[1].ts_ns, t0[2].ts_ns);
    EXPECT_EQ(trace.dropped(), 0u);
    EXPECT_NE(json.find("\"steal_sweep\""), std::string::npos);
    EXPECT_NE(json.find("\"termination_scan\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  } else {
    EXPECT_EQ(json, "{\"traceEvents\":[]}\n");
    EXPECT_TRUE(trace.events(0).empty());
  }
}

TEST(TraceRecorder, RingOverflowDropsOldestAndStillExportsCleanly) {
  if (!obs::TraceRecorder::kEnabled) GTEST_SKIP() << "WASP_OBS=OFF stub";
  obs::TraceRecorder trace(1, 8);
  for (int i = 0; i < 40; ++i)
    trace.instant(0, EventKind::kChunkAlloc, static_cast<std::uint64_t>(i));
  EXPECT_EQ(trace.events(0).size(), 8u);
  EXPECT_EQ(trace.dropped(), 32u);
  // The retained window is the newest events, oldest first.
  const auto evs = trace.events(0);
  EXPECT_EQ(evs.front().arg, 32u);
  EXPECT_EQ(evs.back().arg, 39u);

  std::ostringstream os;
  trace.write_chrome_trace(os);
  expect_chrome_trace_shape(os.str());

  trace.clear();
  EXPECT_TRUE(trace.events(0).empty());
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(TraceRecorder, SolverRecordsWaspLifecycleEvents) {
  const Graph g = tiny_grid();
  const VertexId src = pick_source_in_largest_component(g, 7);

  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 4;
  options.delta = 8;
  obs::TraceRecorder trace(options.threads);
  options.trace = &trace;
  Solver solver(options);
  solver.solve(g, src);

  std::ostringstream os;
  trace.write_chrome_trace(os);
  expect_chrome_trace_shape(os.str());

  if (obs::TraceRecorder::kEnabled) {
    // Every worker records at least its termination scan.
    for (int t = 0; t < 4; ++t)
      EXPECT_FALSE(trace.events(t).empty()) << "tid " << t;
    // Spans nest: per thread, depth never goes negative and ends at zero
    // after export re-balancing isn't needed for raw well-formed runs.
    for (int t = 0; t < 4; ++t) {
      long depth = 0;
      for (const auto& e : trace.events(t)) {
        if (e.phase == EventPhase::kBegin) ++depth;
        if (e.phase == EventPhase::kEnd) --depth;
      }
      EXPECT_GE(depth, 0) << "tid " << t;
    }
  }
}

// --- metrics registry --------------------------------------------------------

TEST(MetricsRegistry, PerThreadCountersSumToTotals) {
  const Graph g = tiny_grid();
  const VertexId src = pick_source_in_largest_component(g, 7);

  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 4;
  options.delta = 8;
  options.seed = 0x5EED;
  const SsspResult r = Solver(options).solve(g, src);

  ASSERT_EQ(r.metrics.threads, 4);
  ASSERT_EQ(r.metrics.per_thread.size(), 4u);
  for (std::size_t c = 0; c < obs::kNumCounters; ++c) {
    std::uint64_t sum = 0;
    for (const auto& shard : r.metrics.per_thread) sum += shard[c];
    EXPECT_EQ(sum, r.metrics.totals[c])
        << obs::counter_name(static_cast<CounterId>(c));
  }
}

TEST(MetricsRegistry, UpdatesAreASubsetOfRelaxations) {
  const Graph g = tiny_grid();
  const VertexId src = pick_source_in_largest_component(g, 7);

  for (const Algorithm algo : {Algorithm::kWasp, Algorithm::kDeltaStepping,
                               Algorithm::kMqDijkstra}) {
    SsspOptions options;
    options.algo = algo;
    options.threads = 3;
    options.delta = 8;
    options.seed = 0x5EED;
    const SsspResult r = Solver(options).solve(g, src);

    // A successful relaxation is a subset of attempts; the source settles.
    const std::uint64_t relaxations =
        r.metrics.counter(CounterId::kRelaxations);
    EXPECT_LE(r.metrics.counter(CounterId::kUpdates), relaxations);
    EXPECT_GT(relaxations, 0u) << to_string(algo);
  }
}

TEST(MetricsRegistry, SolverReusesRegistryAcrossSolvesWithoutAccumulation) {
  const Graph g = tiny_grid();
  const VertexId src = pick_source_in_largest_component(g, 7);

  SsspOptions options;
  options.algo = Algorithm::kDeltaStepping;
  // One thread: only a single-threaded delta-stepping run has deterministic
  // round and relaxation counts (with two, the interleaving of bucket
  // drains changes both from run to run).
  options.threads = 1;
  options.delta = 8;
  options.seed = 42;
  Solver solver(options);
  const SsspResult first = solver.solve(g, src);
  const SsspResult second = solver.solve(g, src);
  // Each solve resets the registry, so the counters match exactly instead
  // of doubling.
  EXPECT_EQ(first.metrics.counter(CounterId::kRounds),
            second.metrics.counter(CounterId::kRounds));
  EXPECT_EQ(first.metrics.counter(CounterId::kRelaxations),
            second.metrics.counter(CounterId::kRelaxations));
  EXPECT_EQ(solver.last_metrics().counter(CounterId::kRounds),
            second.metrics.counter(CounterId::kRounds));
}

TEST(MetricsRegistry, SnapshotExportsJsonAndCsv) {
  obs::MetricsRegistry registry(2);
  registry.shard(0).inc(CounterId::kRelaxations, 10);
  registry.shard(1).inc(CounterId::kRelaxations, 5);
  registry.shard(0).set_gauge(GaugeId::kTeamJobs, 99);
  registry.shard(1).observe(HistId::kRoundFrontier, 7);
  registry.set_elapsed_seconds(0.5);
  const obs::MetricsSnapshot snap = registry.snapshot();

  EXPECT_EQ(snap.counter(CounterId::kRelaxations), 15u);
  EXPECT_EQ(snap.gauge(GaugeId::kTeamJobs), 99u);
  EXPECT_EQ(snap.hist_count(HistId::kRoundFrontier, obs::hist_bucket(7)), 1u);

  std::ostringstream json;
  snap.write_json(json);
  EXPECT_NE(json.str().find("\"relaxations\""), std::string::npos);
  EXPECT_NE(json.str().find("15"), std::string::npos);

  std::ostringstream csv;
  snap.write_csv(csv);
  EXPECT_NE(csv.str().find("relaxations"), std::string::npos);
  EXPECT_NE(csv.str().find("total"), std::string::npos);
}

TEST(MetricsRegistry, HistogramBucketingIsLog2) {
  EXPECT_EQ(obs::hist_bucket(0), 0u);
  EXPECT_EQ(obs::hist_bucket(1), 1u);
  EXPECT_EQ(obs::hist_bucket(2), 2u);
  EXPECT_EQ(obs::hist_bucket(3), 2u);
  EXPECT_EQ(obs::hist_bucket(4), 3u);
  EXPECT_EQ(obs::hist_bucket(1024), 11u);
  EXPECT_EQ(obs::hist_bucket(~std::uint64_t{0}), obs::kHistBuckets - 1);
  EXPECT_EQ(obs::hist_bucket_floor(0), 0u);
  EXPECT_EQ(obs::hist_bucket_floor(1), 1u);
  EXPECT_EQ(obs::hist_bucket_floor(11), 1024u);
}

// --- verify-model race checking over the sharding discipline -----------------

#if defined(WASP_VERIFY_ENABLED) && WASP_VERIFY_ENABLED

verify::Session::Options verify_options(int threads) {
  verify::Session::Options o;
  o.threads = threads;
  o.seed = 7;
  return o;
}

TEST(MetricsRegistryVerify, DisciplinedShardingReportsNoRaces) {
  verify::Session session(verify_options(3));
  obs::MetricsRegistry registry(2);
  verify::atomic<int> done{0};

  // Workers 0/1 write only their own shard, then publish with a release
  // fetch_add; thread 2 acquires both publications before reading the
  // shards — the happens-before edges the real dispatcher gets from the
  // team join.
  std::vector<std::thread> pool;
  for (int t = 0; t < 2; ++t) {
    pool.emplace_back([&, t] {
      verify::ScopedBind bind(&session, t);
      for (int i = 0; i < 100; ++i)
        registry.shard(t).inc(CounterId::kRelaxations);
      registry.shard(t).observe(HistId::kIdleScanNs, 42);
      done.fetch_add(1, std::memory_order_release);
    });
  }
  pool.emplace_back([&] {
    verify::ScopedBind bind(&session, 2);
    while (done.load(std::memory_order_acquire) != 2) std::this_thread::yield();
    std::uint64_t sum = 0;
    for (int t = 0; t < 2; ++t)
      sum += registry.shard(t).counter(CounterId::kRelaxations);
    EXPECT_EQ(sum, 200u);
  });
  for (auto& th : pool) th.join();

  EXPECT_TRUE(session.ok()) << session.report_text();
}

TEST(MetricsRegistryVerify, CrossShardWriteWithoutOrderingIsReported) {
  verify::Session session(verify_options(2));
  obs::MetricsRegistry registry(1);

  // Both threads hammer the SAME shard with no synchronization: the plain
  // counter slots conflict and the checker must flag it.
  std::vector<std::thread> pool;
  for (int t = 0; t < 2; ++t) {
    pool.emplace_back([&, t] {
      verify::ScopedBind bind(&session, t);
      for (int i = 0; i < 50; ++i) registry.shard(0).inc(CounterId::kUpdates);
    });
  }
  for (auto& th : pool) th.join();

  EXPECT_FALSE(session.ok());
  EXPECT_NE(session.report_text().find("metrics"), std::string::npos);
}

TEST(MetricsRegistryVerify, FullWaspRunUnderModelReportsNoRaces) {
  // End-to-end: the dispatcher's RunContext threads the registry to real
  // workers; a session bound inside them must stay clean.
  const Graph g = gen::grid(12, 12, WeightScheme::gap(), 5);
  const VertexId src = pick_source_in_largest_component(g, 3);

  verify::Session session(verify_options(2));
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 2;
  options.delta = 8;
  // The sssp drivers bind their workers to the session only through
  // ScopedSchedule, when a Scheduler is installed; none is here, so the
  // workers run unbound through the checked atomics' passthrough, and the
  // run must not trip the session installed around it.
  const SsspResult r = Solver(options).solve(g, src);
  EXPECT_FALSE(r.dist.empty());
  EXPECT_TRUE(session.ok()) << session.report_text();
}

#endif  // WASP_VERIFY_ENABLED

// --- options validation -------------------------------------------------------

TEST(SsspOptionsValidate, DefaultsAreValid) {
  SsspOptions options;
  EXPECT_NO_THROW(options.validate());
}

TEST(SsspOptionsValidate, RejectsEveryOutOfRangeKnob) {
  const auto expect_invalid = [](auto mutate, const char* label) {
    SsspOptions options;
    mutate(options);
    EXPECT_THROW(options.validate(), InvalidOptionsError) << label;
  };
  expect_invalid([](SsspOptions& o) { o.threads = 0; }, "threads=0");
  expect_invalid([](SsspOptions& o) { o.threads = -3; }, "threads=-3");
  expect_invalid([](SsspOptions& o) { o.delta = 0; }, "delta=0");
  expect_invalid([](SsspOptions& o) { o.wasp.theta = 0; }, "theta=0");
  expect_invalid([](SsspOptions& o) { o.wasp.steal_retries = -1; },
                 "steal_retries=-1");
  expect_invalid([](SsspOptions& o) { o.wasp.chunk_capacity = 77; },
                 "chunk_capacity=77");
  expect_invalid([](SsspOptions& o) { o.wasp.chunk_capacity = 0; },
                 "chunk_capacity=0");
  expect_invalid([](SsspOptions& o) { o.stepping.rho = 0; }, "rho=0");
  expect_invalid([](SsspOptions& o) { o.mq.c = 0; }, "mq.c=0");
  expect_invalid([](SsspOptions& o) { o.mq.stickiness = 0; }, "stickiness=0");
  expect_invalid([](SsspOptions& o) { o.mq.buffer = 0; }, "buffer=0");
  expect_invalid([](SsspOptions& o) { o.obim.chunk_size = 0; }, "chunk_size=0");
}

TEST(SsspOptionsValidate, FrontDoorRejectsBeforeSpawningWorkers) {
  const Graph g = tiny_grid();
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 2;
  options.delta = 0;
  EXPECT_THROW(Solver(options).solve(g, 0), InvalidOptionsError);

  options.delta = 1;
  options.wasp.chunk_capacity = 77;
  EXPECT_THROW(Solver(options).solve(g, 0), InvalidOptionsError);

  options.wasp.chunk_capacity = 64;
  options.threads = 0;
  EXPECT_THROW(Solver{options}, InvalidOptionsError);
}

// --- algorithm <-> name table -------------------------------------------------

TEST(AlgorithmTable, RoundTripsEveryCanonicalName) {
  const Algorithm all[] = {
      Algorithm::kDijkstra,      Algorithm::kBellmanFord,
      Algorithm::kDeltaStepping, Algorithm::kJulienne,
      Algorithm::kDeltaStar,     Algorithm::kRhoStepping,
      Algorithm::kMqDijkstra,    Algorithm::kObim,
      Algorithm::kWasp,
  };
  for (const Algorithm a : all) {
    const std::string name = to_string(a);
    EXPECT_NE(name, "?");
    EXPECT_EQ(parse_algorithm(name), a) << name;
    EXPECT_STREQ(to_string(a), name.c_str());
  }
}

TEST(AlgorithmTable, AcceptsDocumentedAliases) {
  EXPECT_EQ(parse_algorithm("bellman-ford"), Algorithm::kBellmanFord);
  EXPECT_EQ(parse_algorithm("delta"), Algorithm::kDeltaStepping);
  EXPECT_EQ(parse_algorithm("julienne"), Algorithm::kJulienne);
  EXPECT_EQ(parse_algorithm("delta-star"), Algorithm::kDeltaStar);
  EXPECT_EQ(parse_algorithm("rho-stepping"), Algorithm::kRhoStepping);
  EXPECT_EQ(parse_algorithm("multiqueue"), Algorithm::kMqDijkstra);
  EXPECT_EQ(parse_algorithm("obim"), Algorithm::kObim);
}

TEST(AlgorithmTable, RejectsUnknownNamesListingTheTable) {
  // Baselines the library does not ship (radius-stepping, the Stealing
  // MultiQueue) are unknown like any other name.
  for (const std::string name : {"quantum-annealing", "smq", "radius",
                                 "stealing-multiqueue", "radius-stepping"}) {
    try {
      parse_algorithm(name);
      FAIL() << "expected std::invalid_argument for " << name;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(name), std::string::npos);
      EXPECT_NE(what.find(algorithm_list()), std::string::npos) << what;
    }
  }
}

TEST(AlgorithmTable, ListEnumeratesNineCanonicalNames) {
  const std::string list = algorithm_list();
  EXPECT_NE(list.find("dijkstra"), std::string::npos);
  EXPECT_NE(list.find("wasp"), std::string::npos);
  std::size_t bars = 0;
  for (const char c : list) bars += c == '|' ? 1 : 0;
  EXPECT_EQ(bars, 8u);  // 9 names, 8 separators
}

}  // namespace
}  // namespace wasp
