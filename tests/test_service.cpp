// Service-level robustness: cooperative cancellation leaves every parallel
// algorithm's Solver reusable (next solve bit-identical to a fresh run),
// deadlines are enforced by both the in-run polls and the QueryService
// watchdog, admission control sheds/rejects/coalesces as specified, the
// stale cache degrades gracefully, and the retry/backoff path replays
// deterministically from its seed (override with WASP_CHAOS_SEED).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "service/service.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/solver.hpp"
#include "sssp/sssp.hpp"
#include "support/cancel.hpp"
#include "support/errors.hpp"

namespace wasp {
namespace {

using service::Outcome;
using service::QueryRequest;
using service::QueryResult;
using service::QueryService;
using service::ServiceConfig;

Graph make_test_graph() {
  return gen::erdos_renyi(20000, 8.0, WeightScheme::gap(), 29);
}

Graph make_small_graph() {
  return gen::erdos_renyi(3000, 6.0, WeightScheme::gap(), 31);
}

SsspOptions options_for(Algorithm algo) {
  SsspOptions options;
  options.algo = algo;
  options.threads = 3;
  options.delta = 32;
  return options;
}

std::uint64_t test_seed() {
  if (const char* pin = std::getenv("WASP_CHAOS_SEED"))
    return std::strtoull(pin, nullptr, 10);
  return 0x5EEDULL;
}

/// Requests cancellation from the first run callback (worker thread), so the
/// cancel lands mid-solve if the run is big enough to fire one.
class CancelOnFirstCallback final : public obs::RunObserver {
 public:
  explicit CancelOnFirstCallback(CancelToken& token) : token_(&token) {}
  void on_round(std::uint64_t, std::uint64_t) override { fire(); }
  void on_progress(int, std::uint64_t) override { fire(); }

 private:
  void fire() { token_->request_cancel(CancelReason::kUser); }
  CancelToken* token_;
};

/// Blocks the first run callback after arm() until release(); callbacks
/// while unarmed (or after release) pass straight through. Lets a test hold
/// a solve in flight deterministically.
class BlockingObserver final : public obs::RunObserver {
 public:
  void on_round(std::uint64_t, std::uint64_t) override { maybe_block(); }
  void on_progress(int, std::uint64_t) override { maybe_block(); }

  void arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
    released_ = false;
    blocked_ = false;
  }
  void wait_until_blocked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return blocked_; });
  }
  [[nodiscard]] bool wait_until_blocked_for(std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, timeout, [&] { return blocked_; });
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
      armed_ = false;
    }
    cv_.notify_all();
  }

 private:
  void maybe_block() {
    std::unique_lock<std::mutex> lock(mu_);
    if (!armed_ || blocked_) return;
    blocked_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool blocked_ = false;
  bool released_ = false;
};

// --- Solver-level cancellation, every parallel algorithm -------------------

class ServiceCancel : public testing::TestWithParam<Algorithm> {};

TEST_P(ServiceCancel, CancelMidSolveLeavesSolverReusableAndBitIdentical) {
  const Graph g = make_test_graph();
  const VertexId source = pick_source_in_largest_component(g, 7);
  const SsspOptions options = options_for(GetParam());
  const SsspResult fresh = run_sssp(g, source, options);

  Solver solver(options);
  CancelToken token;
  CancelOnFirstCallback canceller(token);
  solver.set_observer(&canceller);
  solver.options().cancel = &token;

  bool cancelled = false;
  try {
    const SsspResult r = solver.solve(g, source);
    // The run finished before any callback fired (tiny runs may): the
    // result must then be a normal, correct solve.
    EXPECT_EQ(r.dist, fresh.dist);
  } catch (const SolveCancelledError& e) {
    cancelled = true;
    EXPECT_EQ(e.reason(), CancelReason::kUser);
  }

  // Whether or not the cancel landed, the Solver must be reusable and the
  // next (uncancelled) solve bit-identical to a fresh per-call run.
  solver.set_observer(nullptr);
  solver.options().cancel = nullptr;
  const SsspResult again = solver.solve(g, source);
  EXPECT_EQ(again.dist, fresh.dist)
      << "post-cancel solve diverged (cancelled=" << cancelled << ")";
}

TEST_P(ServiceCancel, PreExpiredDeadlineThrowsBeforeRunning) {
  const Graph g = make_small_graph();
  const VertexId source = pick_source_in_largest_component(g, 7);
  Solver solver(options_for(GetParam()));
  CancelToken token;
  token.set_deadline(CancelToken::Clock::now() - std::chrono::seconds(1));
  solver.options().cancel = &token;
  try {
    (void)solver.solve(g, source);
    FAIL() << "expected SolveCancelledError";
  } catch (const SolveCancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::kDeadline);
  }
  // Reusable afterwards.
  solver.options().cancel = nullptr;
  const SsspResult r = solver.solve(g, source);
  EXPECT_EQ(r.dist, run_sssp(g, source, options_for(GetParam())).dist);
}

INSTANTIATE_TEST_SUITE_P(
    ServiceAlgos, ServiceCancel,
    testing::Values(Algorithm::kBellmanFord, Algorithm::kDeltaStepping,
                    Algorithm::kJulienne, Algorithm::kDeltaStar,
                    Algorithm::kRhoStepping, Algorithm::kRadiusStepping,
                    Algorithm::kMqDijkstra, Algorithm::kSmqDijkstra,
                    Algorithm::kObim, Algorithm::kWasp),
    [](const testing::TestParamInfo<Algorithm>& param) {
      return algorithm_name(param.param);
    });

// --- Solver re-entrancy guard ----------------------------------------------

TEST(ServiceSolverBusy, ConcurrentSolveThrowsTyped) {
  const Graph g = make_test_graph();
  const VertexId source = pick_source_in_largest_component(g, 7);
  Solver solver(options_for(Algorithm::kBellmanFord));
  BlockingObserver blocker;
  solver.set_observer(&blocker);
  blocker.arm();

  std::thread runner([&] { (void)solver.solve(g, source); });
  blocker.wait_until_blocked();  // a solve is now provably in flight
  EXPECT_THROW((void)solver.solve(g, source), SolverBusyError);
  blocker.release();
  runner.join();

  // The guard released: the solver accepts the next solve.
  solver.set_observer(nullptr);
  EXPECT_NO_THROW((void)solver.solve(g, source));
}

// --- QueryService ----------------------------------------------------------

TEST(ServiceQuery, ServesQueriesBitIdenticalToFreshSolves) {
  const Graph g = make_small_graph();
  const VertexId s1 = pick_source_in_largest_component(g, 11);
  const VertexId s2 = pick_source_in_largest_component(g, 12345);
  const SsspOptions opts = options_for(Algorithm::kWasp);

  ServiceConfig config;
  config.solver = opts;
  config.num_solvers = 2;
  QueryService svc(config);
  const QueryResult r1 = svc.solve(g, {.source = s1});
  const QueryResult r2 = svc.solve(g, {.source = s2});
  ASSERT_EQ(r1.outcome, Outcome::kServed);
  ASSERT_EQ(r2.outcome, Outcome::kServed);
  EXPECT_TRUE(r1.ok());
  EXPECT_EQ(r1.dist, run_sssp(g, s1, opts).dist);
  EXPECT_EQ(r2.dist, run_sssp(g, s2, opts).dist);
  EXPECT_EQ(r1.attempts, 1);

  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.totals.submitted, 2u);
  EXPECT_EQ(stats.totals.served, 2u);
  EXPECT_EQ(stats.tenants.at("default").served, 2u);
  const obs::MetricsSnapshot snap = svc.metrics();
  EXPECT_EQ(snap.counter(obs::CounterId::kQueriesServed), 2u);
}

TEST(ServiceQuery, CoalescesQueuedSameSourceSubmits) {
  const Graph g = make_small_graph();
  const VertexId a = pick_source_in_largest_component(g, 11);
  const VertexId b = pick_source_in_largest_component(g, 12345);
  ASSERT_NE(a, b);

  BlockingObserver blocker;
  ServiceConfig config;
  config.solver = options_for(Algorithm::kBellmanFord);
  config.solver.observer = &blocker;
  config.num_solvers = 1;
  QueryService svc(config);

  blocker.arm();
  auto running = svc.submit(g, {.source = a});  // occupies the only solver
  blocker.wait_until_blocked();
  auto f1 = svc.submit(g, {.source = b});
  // Same (graph, source): coalesces onto f1.
  auto f2 = svc.submit(g, {.source = b});
  EXPECT_EQ(svc.stats().totals.coalesced, 1u);
  EXPECT_EQ(svc.stats().totals.submitted, 2u);  // riders are not re-counted
  blocker.release();

  EXPECT_EQ(running.get().outcome, Outcome::kServed);
  const QueryResult rb1 = f1.get();
  const QueryResult rb2 = f2.get();
  EXPECT_EQ(rb1.outcome, Outcome::kServed);
  EXPECT_EQ(rb1.query_id, rb2.query_id);  // literally the same resolution
  EXPECT_EQ(rb1.dist, rb2.dist);
}

TEST(ServiceQuery, OverloadShedsLowPriorityAndRejectsNonOutranking) {
  const Graph g = make_small_graph();
  const VertexId source = pick_source_in_largest_component(g, 11);

  BlockingObserver blocker;
  ServiceConfig config;
  config.solver = options_for(Algorithm::kBellmanFord);
  config.solver.observer = &blocker;
  config.num_solvers = 1;
  config.queue_capacity = 2;
  config.coalesce = false;  // each submit must occupy its own slot here
  QueryService svc(config);

  blocker.arm();
  auto running = svc.submit(g, {.source = source});
  blocker.wait_until_blocked();
  auto q1 = svc.submit(g, {.source = source});
  auto q2 = svc.submit(g, {.source = source});  // queue now at capacity
  // Same priority outranks nothing: typed rejection.
  EXPECT_THROW((void)svc.submit(g, {.source = source}),
               ServiceOverloadedError);
  // Higher priority evicts the youngest lowest-priority entry (q2).
  auto q3 = svc.submit(g, {.source = source, .priority = 1, .tenant = "gold"});
  EXPECT_EQ(q2.get().outcome, Outcome::kShed);
  blocker.release();

  EXPECT_EQ(running.get().outcome, Outcome::kServed);
  EXPECT_EQ(q1.get().outcome, Outcome::kServed);
  EXPECT_EQ(q3.get().outcome, Outcome::kServed);
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.totals.rejected, 1u);
  EXPECT_EQ(stats.totals.shed, 1u);
  EXPECT_EQ(stats.tenants.at("gold").served, 1u);
}

TEST(ServiceQuery, QueueExpiryDegradesToStaleWhenAllowed) {
  const Graph g = make_small_graph();
  const VertexId a = pick_source_in_largest_component(g, 11);

  BlockingObserver blocker;
  ServiceConfig config;
  config.solver = options_for(Algorithm::kBellmanFord);
  config.solver.observer = &blocker;
  config.num_solvers = 1;
  config.coalesce = false;
  QueryService svc(config);

  // Prime the stale cache with a served answer for `a`.
  const QueryResult primed = svc.solve(g, {.source = a});
  ASSERT_EQ(primed.outcome, Outcome::kServed);

  blocker.arm();
  auto running = svc.submit(g, {.source = a});
  blocker.wait_until_blocked();

  auto degraded = svc.submit(g, {.source = a,
                                 .budget = std::chrono::milliseconds(2),
                                 .allow_stale = true});
  auto expired =
      svc.submit(g, {.source = a, .budget = std::chrono::milliseconds(2)});

  // The watchdog expires both in the queue (the only solver is held).
  const QueryResult rd = degraded.get();
  EXPECT_EQ(rd.outcome, Outcome::kServedStale);
  EXPECT_EQ(rd.dist, primed.dist);
  EXPECT_EQ(expired.get().outcome, Outcome::kDeadlineExpired);
  blocker.release();
  EXPECT_EQ(running.get().outcome, Outcome::kServed);
}

TEST(ServiceQuery, ShedDowngradedToStaleCountsOnceAsServedStale) {
  const Graph g = make_small_graph();
  const VertexId source = pick_source_in_largest_component(g, 11);

  BlockingObserver blocker;
  ServiceConfig config;
  config.solver = options_for(Algorithm::kBellmanFord);
  config.solver.observer = &blocker;
  config.num_solvers = 1;
  config.queue_capacity = 1;
  config.coalesce = false;
  QueryService svc(config);

  // Prime the stale cache, then hold the only solver mid-run.
  const QueryResult primed = svc.solve(g, {.source = source});
  ASSERT_EQ(primed.outcome, Outcome::kServed);
  blocker.arm();
  auto running = svc.submit(g, {.source = source});
  blocker.wait_until_blocked();

  // The victim fills the queue; the evictor sheds it.
  auto victim = svc.submit(g, {.source = source, .allow_stale = true});
  auto evictor = svc.submit(g, {.source = source, .priority = 1});

  const QueryResult rv = victim.get();
  EXPECT_EQ(rv.outcome, Outcome::kServedStale);
  EXPECT_EQ(rv.dist, primed.dist);
  blocker.release();
  EXPECT_EQ(running.get().outcome, Outcome::kServed);
  EXPECT_EQ(evictor.get().outcome, Outcome::kServed);

  // One outcome, one counter: the shed-then-downgraded query is
  // served_stale everywhere — tenant table and metrics must agree.
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.totals.shed, 0u);
  EXPECT_EQ(stats.totals.served_stale, 1u);
  const obs::MetricsSnapshot snap = svc.metrics();
  EXPECT_EQ(snap.counter(obs::CounterId::kQueriesShed), 0u);
  EXPECT_EQ(snap.counter(obs::CounterId::kQueriesServedStale), 1u);
}

TEST(ServiceQuery, GraphRebuiltInTheSameStorageIsNotServedTheOldAnswer) {
  std::optional<Graph> storage;
  storage.emplace(make_small_graph());
  const Graph* const address = &*storage;
  const VertexId source = pick_source_in_largest_component(*storage, 11);

  BlockingObserver blocker;
  ServiceConfig config;
  config.solver = options_for(Algorithm::kBellmanFord);
  config.solver.observer = &blocker;
  config.num_solvers = 1;
  config.queue_capacity = 1;
  config.coalesce = false;
  QueryService svc(config);

  // Prime the stale cache for the first graph, then construct a different
  // graph of the same size in the very same storage.
  const QueryResult primed = svc.solve(*storage, {.source = source});
  ASSERT_EQ(primed.outcome, Outcome::kServed);
  storage.reset();
  storage.emplace(gen::erdos_renyi(3000, 6.0, WeightScheme::gap(), 37));
  ASSERT_EQ(&*storage, address);
  const std::vector<Distance> reference = dijkstra(*storage, source).dist;
  ASSERT_NE(reference, primed.dist);

  blocker.arm();
  auto running = svc.submit(*storage, {.source = source});
  blocker.wait_until_blocked();
  // The victim fills the queue; the evictor sheds it.
  auto victim = svc.submit(*storage, {.source = source, .allow_stale = true});
  auto evictor = svc.submit(*storage, {.source = source, .priority = 1});

  // The cache holds an answer for the old graph only; the new graph has
  // none, so the shed query cannot degrade to it.
  const QueryResult rv = victim.get();
  EXPECT_EQ(rv.outcome, Outcome::kShed);
  EXPECT_TRUE(rv.dist.empty());
  blocker.release();
  EXPECT_EQ(running.get().dist, reference);
  EXPECT_EQ(evictor.get().dist, reference);
}

TEST(ServiceQuery, WatchdogCancelsOverdueRunThenQuarantinesAndRebuilds) {
  const Graph g = make_small_graph();
  const VertexId source = pick_source_in_largest_component(g, 11);
  const SsspOptions opts = options_for(Algorithm::kBellmanFord);
  const SsspResult fresh = run_sssp(g, source, opts);

  BlockingObserver blocker;
  ServiceConfig config;
  // Bellman-Ford: only participant 0 polls the deadline (round top), and it
  // is the thread the observer blocks — so the in-run self-cancel cannot
  // fire and the watchdog is provably the one that cancels.
  config.solver = opts;
  config.solver.observer = &blocker;
  config.num_solvers = 1;
  QueryService svc(config);

  // Warm the worker and its solver so the overdue query's pop-to-first-round
  // latency is small against its budget even under sanitizer slowdown; a
  // budget that expires while still queued would be resolved by the watchdog
  // without ever starting the run (and the observer would never block).
  ASSERT_EQ(svc.solve(g, {.source = source}).outcome, Outcome::kServed);

  blocker.arm();
  auto overdue = svc.submit(
      g, {.source = source, .budget = std::chrono::milliseconds(300)});
  ASSERT_TRUE(blocker.wait_until_blocked_for(std::chrono::seconds(60)))
      << "solve never reached its first round; the deadline expired while "
         "the query was still queued";
  // Wait for the watchdog to notice the blown deadline.
  for (int i = 0; i < 5000 && svc.stats().watchdog_cancels == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_GE(svc.stats().watchdog_cancels, 1u);
  blocker.release();

  EXPECT_EQ(overdue.get().outcome, Outcome::kDeadlineExpired);
  // The cancelled Solver was quarantined; the next query runs on a rebuilt
  // one and must be bit-identical to a fresh solve.
  const QueryResult next = svc.solve(g, {.source = source});
  EXPECT_EQ(next.outcome, Outcome::kServed);
  EXPECT_EQ(next.dist, fresh.dist);
  EXPECT_EQ(svc.stats().solver_rebuilds, 1u);
}

TEST(ServiceQuery, RetryBackoffIsDeterministicUnderSeedReplay) {
  const Graph g = make_small_graph();
  const VertexId source = pick_source_in_largest_component(g, 11);
  const std::uint64_t seed = test_seed();

  const auto run_once = [&](std::uint64_t s) {
    ServiceConfig config;
    config.solver = options_for(Algorithm::kWasp);
    config.num_solvers = 1;
    config.seed = s;
    config.max_retries = 2;
    config.inject_failure = [](int attempt) {
      if (attempt < 2) throw std::runtime_error("injected transient fault");
    };
    QueryService svc(config);
    return svc.solve(g, {.source = source});
  };

  const QueryResult first = run_once(seed);
  ASSERT_EQ(first.outcome, Outcome::kServed) << first.error;
  EXPECT_EQ(first.attempts, 3);
  ASSERT_EQ(first.backoff_ns.size(), 2u);
  // Exponential base with seeded jitter: attempt k sleeps in
  // [base << k, (base << k) + base).
  const std::uint64_t base = static_cast<std::uint64_t>(
      ServiceConfig{}.retry_backoff.count());
  EXPECT_GE(first.backoff_ns[0], base);
  EXPECT_LT(first.backoff_ns[0], base * 2);
  EXPECT_GE(first.backoff_ns[1], base * 2);
  EXPECT_LT(first.backoff_ns[1], base * 3);

  // Same seed => byte-identical backoff schedule (deterministic replay).
  const QueryResult replay = run_once(seed);
  ASSERT_EQ(replay.outcome, Outcome::kServed);
  EXPECT_EQ(replay.backoff_ns, first.backoff_ns);
}

TEST(ServiceQuery, RetryExhaustionAndPermanentErrorsFailTyped) {
  const Graph g = make_small_graph();
  const VertexId source = pick_source_in_largest_component(g, 11);

  ServiceConfig config;
  config.solver = options_for(Algorithm::kWasp);
  config.num_solvers = 1;
  config.max_retries = 1;
  config.inject_failure = [](int) {
    throw std::runtime_error("always failing");
  };
  QueryService svc(config);
  const QueryResult r = svc.solve(g, {.source = source});
  EXPECT_EQ(r.outcome, Outcome::kFailed);
  EXPECT_EQ(r.attempts, 2);  // first + one retry, then exhausted
  EXPECT_FALSE(r.error.empty());

  // Permanent input errors are caught upfront: an out-of-range source
  // throws at submit() instead of burning a worker on a doomed query.
  ServiceConfig plain;
  plain.solver = options_for(Algorithm::kWasp);
  plain.num_solvers = 1;
  QueryService svc2(plain);
  EXPECT_THROW((void)svc2.solve(g, {.source = g.num_vertices() + 7}),
               InvalidSourceError);
}

TEST(ServiceQuery, PlainGraphRejectsAPositiveMinGraphVersion) {
  const Graph g = make_small_graph();
  const VertexId source = pick_source_in_largest_component(g, 11);
  ServiceConfig config;
  config.solver = options_for(Algorithm::kWasp);
  config.num_solvers = 1;
  QueryService svc(config);

  // A plain Graph is version 0, so it has not reached version 5: submit
  // throws instead of queueing the query and answering it at version 0.
  const QueryRequest ahead{.source = source, .min_graph_version = 5};
  EXPECT_THROW((void)svc.submit(g, ahead), InvalidOptionsError);
  EXPECT_EQ(svc.stats().totals.submitted, 0u);

  const QueryResult r = svc.solve(g, {.source = source});
  EXPECT_EQ(r.outcome, Outcome::kServed);
  EXPECT_EQ(r.graph_version, 0u);
}

TEST(ServiceQuery, ShutdownResolvesQueuedAsCancelledAndRejectsSubmits) {
  const Graph g = make_small_graph();
  const VertexId source = pick_source_in_largest_component(g, 11);

  BlockingObserver blocker;
  ServiceConfig config;
  config.solver = options_for(Algorithm::kBellmanFord);
  config.solver.observer = &blocker;
  config.num_solvers = 1;
  config.coalesce = false;
  QueryService svc(config);

  blocker.arm();
  auto running = svc.submit(g, {.source = source});
  blocker.wait_until_blocked();
  auto queued = svc.submit(g, {.source = source});

  std::thread closer([&] { svc.shutdown(); });
  // Queued entries resolve immediately (shutdown drains the queue before
  // joining the fleet); the running query is token-cancelled and resolves
  // once the observer lets it continue.
  EXPECT_EQ(queued.get().outcome, Outcome::kCancelled);
  blocker.release();
  const QueryResult ran = running.get();
  EXPECT_TRUE(ran.outcome == Outcome::kCancelled ||
              ran.outcome == Outcome::kServed)
      << to_string(ran.outcome);
  closer.join();

  EXPECT_THROW((void)svc.submit(g, {.source = source}), std::logic_error);
  svc.shutdown();  // idempotent
}

TEST(ServiceQuery, ValidatesConfig) {
  ServiceConfig bad;
  bad.num_solvers = 0;
  EXPECT_THROW(QueryService{bad}, InvalidOptionsError);
  ServiceConfig bad2;
  bad2.queue_capacity = 0;
  EXPECT_THROW(QueryService{bad2}, InvalidOptionsError);
}

}  // namespace
}  // namespace wasp
