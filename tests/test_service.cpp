// Service-level robustness: a pre-expired deadline throws before any work
// and leaves every algorithm's Solver reusable (mid-solve cancellation is
// the cancel axis of test_differential.cpp), deadlines are enforced by both
// the in-run polls and the QueryService watchdog, admission control
// sheds/rejects/coalesces as specified, the stale cache degrades
// gracefully, and the retry/backoff path replays deterministically from its
// seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <mutex>
#include <new>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "service/service.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/solver.hpp"
#include "support/cancel.hpp"
#include "support/errors.hpp"

namespace {

/// Test-only allocation seam: while g_watched_bytes is non-zero, every
/// ::operator new of exactly that many bytes is recorded, so a test can see
/// which buffers of an answer's size a query allocated.
std::atomic<std::size_t> g_watched_bytes{0};
constexpr std::size_t kMaxWatched = 8;
std::atomic<std::size_t> g_watched_count{0};
std::atomic<void*> g_watched[kMaxWatched];

void* watched_malloc(std::size_t size) noexcept {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr && size == g_watched_bytes.load(std::memory_order_relaxed)) {
    const std::size_t i =
        g_watched_count.fetch_add(1, std::memory_order_relaxed);
    if (i < kMaxWatched) g_watched[i].store(p, std::memory_order_relaxed);
  }
  return p;
}

void* watched_malloc_or_throw(std::size_t size) {
  void* p = watched_malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Every unaligned form is replaced, so each allocation and its release meet
// in malloc and free: a sanitizer's own operator new would not match this
// file's delete. Out of line, so the compiler does not pair the malloc and
// free across an inlined new/delete (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  return watched_malloc_or_throw(size);
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return watched_malloc_or_throw(size);
}
[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t& /*tag*/) noexcept {
  return watched_malloc(size);
}
[[gnu::noinline]] void* operator new[](std::size_t size,
                                       const std::nothrow_t& /*tag*/) noexcept {
  return watched_malloc(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t /*size*/) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         std::size_t /*size*/) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t& /*tag*/) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](
    void* p, const std::nothrow_t& /*tag*/) noexcept {
  std::free(p);
}

namespace wasp {
namespace {

using service::Outcome;
using service::QueryRequest;
using service::QueryResult;
using service::QueryService;
using service::ServiceConfig;
using CId = obs::CounterId;

Graph make_test_graph() {
  return gen::erdos_renyi(20000, 8.0, WeightScheme::gap(), 29);
}

Graph make_small_graph() {
  return gen::erdos_renyi(3000, 6.0, WeightScheme::gap(), 31);
}

/// The undirected path 0-1-...-(n-1), every arc of weight 10, in a graph
/// of max(n, width) vertices: the rest are isolated.
Graph make_weighted_path(VertexId n, VertexId width = 0) {
  std::vector<Edge> path;
  for (VertexId u = 0; u + 1 < n; ++u) path.push_back(Edge{u, u + 1, 10});
  return GraphBuilder()
      .edges(std::max(n, width), std::move(path))
      .undirected(true)
      .build();
}

/// Past 2^16 vertices the byte budget binds before the count ceiling.
constexpr VertexId kWideVertices = VertexId{1} << 17;

/// A 64-vertex path in kWideVertices vertices: every answer is that wide,
/// yet a solve only walks the path.
Graph make_wide_graph() { return make_weighted_path(64, kWideVertices); }

SsspOptions options_for(Algorithm algo) {
  SsspOptions options;
  options.algo = algo;
  options.threads = 3;
  options.delta = 32;
  return options;
}

constexpr std::uint64_t kTestSeed = 0x5EEDULL;

/// Patches a weight of one of u's arcs directly, outside
/// QueryService::update(), so a service's cached answers for `vg` fall one
/// version behind (update() would repair them to the new version). Only
/// call with no query on `vg` in flight.
void step_version(VersionedGraph& vg, VertexId u) {
  const WEdge arc = vg.graph().out_neighbors(u)[0];
  (void)vg.apply(GraphDelta().set_weight(u, arc.dst, arc.w + 1));
}

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

// --- Solver-level deadlines, every parallel algorithm ----------------------

class ServiceCancel : public testing::TestWithParam<Algorithm> {};

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
  EXPECT_EQ(r.dist, Solver(options_for(GetParam())).solve(g, source).dist);
}

INSTANTIATE_TEST_SUITE_P(
    ServiceAlgos, ServiceCancel,
    testing::Values(Algorithm::kBellmanFord, Algorithm::kDeltaStepping,
                    Algorithm::kJulienne, Algorithm::kDeltaStar,
                    Algorithm::kRhoStepping, Algorithm::kMqDijkstra,
                    Algorithm::kObim, Algorithm::kWasp),
    [](const testing::TestParamInfo<Algorithm>& param) {
      return to_string(param.param);
    });

// --- Solver re-entrancy guard ----------------------------------------------

TEST(ServiceSolverBusy, ConcurrentSolveThrowsTyped) {
  const Graph g = make_test_graph();
  const VertexId source = pick_source_in_largest_component(g, 7);
  Solver solver(options_for(Algorithm::kBellmanFord));
  BlockingObserver blocker;
  solver.options().observer = &blocker;
  blocker.arm();

  std::thread runner([&] { (void)solver.solve(g, source); });
  blocker.wait_until_blocked();  // a solve is now provably in flight
  EXPECT_THROW((void)solver.solve(g, source), SolverBusyError);
  // The versioned door takes the same guard.
  VersionedGraph vg(make_weighted_path(30000));
  EXPECT_THROW((void)solver.solve(vg, 0, {}, 0), SolverBusyError);
  blocker.release();
  runner.join();

  // The guard released: the solver accepts the next solve, of either kind.
  const std::vector<Distance> exact = dijkstra(g, source).dist;
  EXPECT_EQ(solver.solve(g, source).dist, exact);
  solver.options().algo = Algorithm::kWasp;
  const Answer answer = solver.solve(vg, 0, {}, 0);
  EXPECT_EQ(answer, dijkstra(vg.graph(), 0).dist);

  // A repair in flight holds it too. Lowering the path's first arc lowers
  // every vertex past it: the repair processes far past kInlineRepairWork,
  // so it escalates and its team run reaches the observer.
  const std::uint64_t answered = vg.version();
  (void)vg.apply(GraphDelta().set_weight(0, 1, 1));
  Answer repaired;
  blocker.arm();
  std::thread repairer(
      [&] { repaired = solver.solve(vg, 0, answer, answered); });
  const bool blocked = blocker.wait_until_blocked_for(std::chrono::seconds(60));
  if (blocked) {
    EXPECT_THROW((void)solver.solve(g, source), SolverBusyError);
  }
  blocker.release();
  repairer.join();
  ASSERT_TRUE(blocked) << "the repair never reached the observer";
  EXPECT_EQ(solver.last_metrics().counter(CId::kRepairEscalations), 1u);
  EXPECT_EQ(repaired, dijkstra(vg.graph(), 0).dist);

  solver.options().observer = nullptr;
  EXPECT_EQ(solver.solve(g, source).dist, exact);
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
  EXPECT_EQ(r1.dist, Solver(opts).solve(g, s1).dist);
  EXPECT_EQ(r2.dist, Solver(opts).solve(g, s2).dist);
  EXPECT_EQ(r1.attempts, 1);

  const obs::MetricsSnapshot snap = svc.metrics();
  EXPECT_EQ(snap.counter(CId::kQueriesSubmitted), 2u);
  EXPECT_EQ(snap.counter(CId::kQueriesServed), 2u);
  EXPECT_EQ(svc.metrics("default").counter(CId::kQueriesServed), 2u);
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
  EXPECT_EQ(svc.metrics().counter(CId::kQueriesCoalesced), 1u);
  // Riders are not re-counted.
  EXPECT_EQ(svc.metrics().counter(CId::kQueriesSubmitted), 2u);
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
  // Distinct sources, so each submit occupies its own slot (same-source
  // submits would coalesce).
  const auto s = [&](VertexId k) { return (source + k) % g.num_vertices(); };

  BlockingObserver blocker;
  ServiceConfig config;
  config.solver = options_for(Algorithm::kBellmanFord);
  config.solver.observer = &blocker;
  config.num_solvers = 1;
  config.queue_capacity = 2;
  QueryService svc(config);

  blocker.arm();
  auto running = svc.submit(g, {.source = source});
  blocker.wait_until_blocked();
  auto q1 = svc.submit(g, {.source = s(1)});
  auto q2 = svc.submit(g, {.source = s(2)});  // queue now at capacity
  // Same priority outranks nothing: typed rejection.
  EXPECT_THROW((void)svc.submit(g, {.source = s(3)}), ServiceOverloadedError);
  // Higher priority evicts the youngest lowest-priority entry (q2).
  auto q3 = svc.submit(g, {.source = s(4), .priority = 1, .tenant = "gold"});
  EXPECT_EQ(q2.get().outcome, Outcome::kShed);
  blocker.release();

  EXPECT_EQ(running.get().outcome, Outcome::kServed);
  EXPECT_EQ(q1.get().outcome, Outcome::kServed);
  EXPECT_EQ(q3.get().outcome, Outcome::kServed);
  const obs::MetricsSnapshot snap = svc.metrics();
  EXPECT_EQ(snap.counter(CId::kQueriesRejected), 1u);
  EXPECT_EQ(snap.counter(CId::kQueriesShed), 1u);
  EXPECT_EQ(svc.metrics("gold").counter(CId::kQueriesServed), 1u);
}

TEST(ServiceQuery, QueueExpiryDegradesToStaleWhenAllowed) {
  const Graph g = make_small_graph();
  const VertexId a = pick_source_in_largest_component(g, 11);

  BlockingObserver blocker;
  ServiceConfig config;
  config.solver = options_for(Algorithm::kBellmanFord);
  config.solver.observer = &blocker;
  config.num_solvers = 1;
  QueryService svc(config);

  // Prime the stale cache with a served answer for `a`.
  const QueryResult primed = svc.solve(g, {.source = a});
  ASSERT_EQ(primed.outcome, Outcome::kServed);

  // Hold the only solver on a third source: a repeat of `a` would be served
  // from the cache at submit, without a run to hold.
  blocker.arm();
  auto running = svc.submit(g, {.source = (a + 2) % g.num_vertices()});
  blocker.wait_until_blocked();

  // `degraded` repeats `a`, whose cached answer is exactly current, but it
  // is past its absolute deadline at submit, so it skips the fresh path and
  // queues. `expired` asks for another source, which has no cached answer
  // (and does not coalesce onto `degraded`).
  const VertexId b = (a + 1) % g.num_vertices();
  auto degraded = svc.submit(
      g, {.source = a,
          .deadline = service::Clock::now() - std::chrono::milliseconds(1),
          .allow_stale = true});
  auto expired =
      svc.submit(g, {.source = b, .budget = std::chrono::milliseconds(2)});

  // The watchdog expires both in the queue (the only solver is held).
  const QueryResult rd = degraded.get();
  EXPECT_EQ(rd.outcome, Outcome::kServedStale);
  EXPECT_EQ(rd.dist, primed.dist);
  EXPECT_EQ(expired.get().outcome, Outcome::kDeadlineExpired);
  blocker.release();
  EXPECT_EQ(running.get().outcome, Outcome::kServed);
}

TEST(ServiceQuery, FreshStaleAndServedAnswersShareOneBuffer) {
  VersionedGraph vg(make_small_graph());
  const VertexId a = pick_source_in_largest_component(vg.graph(), 11);
  const VertexId b = pick_source_in_largest_component(vg.graph(), 12);
  ASSERT_NE(a, b);

  BlockingObserver blocker;
  ServiceConfig config;
  config.solver = options_for(Algorithm::kBellmanFord);
  config.solver.observer = &blocker;
  config.num_solvers = 1;
  QueryService svc(config);

  // A served run: the cache entry takes the answer the client got.
  const QueryResult served = svc.solve(vg, {.source = a});
  ASSERT_EQ(served.outcome, Outcome::kServed);
  ASSERT_EQ(served.attempts, 1);
  ASSERT_EQ(served.dist, dijkstra(vg.graph(), a).dist);

  // A fresh hit at submit hands out that entry.
  const QueryResult fresh = svc.solve(vg, {.source = a});
  ASSERT_EQ(fresh.outcome, Outcome::kServed);
  EXPECT_EQ(fresh.attempts, 0);
  EXPECT_EQ(fresh.dist.data(), served.dist.data());

  // A stale answer: with the only solver held, a request already past its
  // deadline queues, and the watchdog degrades it to the same entry.
  blocker.arm();
  auto running = svc.submit(vg, {.source = b});
  blocker.wait_until_blocked();
  auto stale = svc.submit(
      vg, {.source = a,
           .deadline = service::Clock::now() - std::chrono::milliseconds(1),
           .allow_stale = true});
  const QueryResult rs = stale.get();
  EXPECT_EQ(rs.outcome, Outcome::kServedStale);
  EXPECT_EQ(rs.dist.data(), served.dist.data());
  blocker.release();
  EXPECT_EQ(running.get().outcome, Outcome::kServed);
}

TEST(ServiceQuery, ServedColdAnswerIsTheBufferItsRunWrote) {
  // A cold run relaxes in one n-entry buffer, and that buffer is the answer
  // all the way out: QueryResult::dist and the cache entry are it, with no
  // copy. The query allocates exactly one buffer of n distances (the seam
  // above records them), and the served answer lives there.
  const Graph g = gen::erdos_renyi(2999, 6.0, WeightScheme::gap(), 33);
  const VertexId source = pick_source_in_largest_component(g, 11);
  const std::vector<Distance> reference = dijkstra(g, source).dist;
  ServiceConfig config;
  config.solver = options_for(Algorithm::kWasp);
  config.num_solvers = 1;
  QueryService svc(config);

  g_watched_count.store(0, std::memory_order_relaxed);
  g_watched_bytes.store(g.num_vertices() * sizeof(Distance),
                        std::memory_order_relaxed);
  const QueryResult served = svc.solve(g, {.source = source});
  g_watched_bytes.store(0, std::memory_order_relaxed);
  ASSERT_EQ(served.outcome, Outcome::kServed);
  ASSERT_EQ(served.attempts, 1);
  EXPECT_EQ(served.dist, reference);
  ASSERT_EQ(g_watched_count.load(std::memory_order_relaxed), 1u);
  EXPECT_EQ(served.dist.data(), g_watched[0].load(std::memory_order_relaxed));

  // The cache stored that buffer: a repeat is served from it at submit.
  const QueryResult repeat = svc.solve(g, {.source = source});
  EXPECT_EQ(repeat.attempts, 0);
  EXPECT_EQ(repeat.dist.data(), served.dist.data());
}

TEST(ServiceQuery, PlainGraphRepeatIsServedFromTheCacheAtSubmit) {
  const Graph g = make_small_graph();
  const VertexId source = pick_source_in_largest_component(g, 11);
  ServiceConfig config;
  config.solver = options_for(Algorithm::kWasp);
  config.num_solvers = 1;
  QueryService svc(config);

  const QueryResult stored = svc.solve(g, {.source = source});
  ASSERT_EQ(stored.outcome, Outcome::kServed);
  ASSERT_EQ(stored.attempts, 1);
  const std::uint64_t cached = svc.metrics().counter(CId::kQueriesServedCached);

  // Same stamp, same source: the entry is the exact answer, no solve.
  const QueryResult repeat = svc.solve(g, {.source = source});
  EXPECT_EQ(repeat.outcome, Outcome::kServed);
  EXPECT_EQ(repeat.attempts, 0);
  EXPECT_EQ(repeat.graph_version, 0u);
  EXPECT_EQ(repeat.dist.data(), stored.dist.data());
  EXPECT_EQ(repeat.dist, dijkstra(g, source).dist);
  EXPECT_EQ(svc.metrics().counter(CId::kQueriesServedCached), cached + 1);
}

TEST(ServiceQuery, PlainGraphCopyMissesTheCache) {
  const Graph g = make_small_graph();
  const VertexId source = pick_source_in_largest_component(g, 11);
  ServiceConfig config;
  config.solver = options_for(Algorithm::kWasp);
  config.num_solvers = 1;
  QueryService svc(config);

  const QueryResult stored = svc.solve(g, {.source = source});
  ASSERT_EQ(stored.outcome, Outcome::kServed);
  // A copy draws a new stamp, so it never reads the original's entries.
  const Graph copy = g;
  ASSERT_NE(copy.stamp(), g.stamp());
  const QueryResult r = svc.solve(copy, {.source = source});
  EXPECT_EQ(r.outcome, Outcome::kServed);
  EXPECT_GE(r.attempts, 1);
  EXPECT_EQ(r.dist, stored.dist);
}

TEST(ServiceQuery, PlainQueryQueuedBehindSameSourceRunIsServedAtPickup) {
  const Graph g = make_small_graph();
  const VertexId source = pick_source_in_largest_component(g, 11);

  BlockingObserver blocker;
  ServiceConfig config;
  config.solver = options_for(Algorithm::kBellmanFord);
  config.solver.observer = &blocker;
  config.num_solvers = 1;
  QueryService svc(config);

  blocker.arm();
  auto running = svc.submit(g, {.source = source});
  blocker.wait_until_blocked();
  // Nothing is cached yet, and a running query takes no riders: it queues.
  auto queued = svc.submit(g, {.source = source});
  blocker.release();

  const QueryResult ran = running.get();
  ASSERT_EQ(ran.outcome, Outcome::kServed);
  EXPECT_EQ(ran.attempts, 1);
  // Picked up after the run stored its answer: served from it, no solve.
  const QueryResult rq = queued.get();
  EXPECT_EQ(rq.outcome, Outcome::kServed);
  EXPECT_EQ(rq.attempts, 0);
  EXPECT_EQ(rq.dist.data(), ran.dist.data());
  EXPECT_EQ(svc.metrics().counter(CId::kQueriesServedCached), 1u);
}

// The cache's capacity: the byte budget, within the count ceiling, and
// never below one answer.
static_assert(service::cache_capacity(3000) == service::kCacheEntries);
static_assert(service::cache_capacity(VertexId{1} << 20) == 16);
static_assert(service::cache_capacity(kWideVertices) == 128);
static_assert(service::cache_capacity(~VertexId{0}) == 1);

TEST(ServiceQuery, CacheEvictsTheLeastRecentlyUsedEntry) {
  const Graph g = make_small_graph();
  // 3,000 vertices: the count ceiling binds, not the byte budget.
  ASSERT_EQ(service::cache_capacity(g.num_vertices()), service::kCacheEntries);
  const VertexId first = pick_source_in_largest_component(g, 11);
  const auto s = [&](std::size_t k) {
    return static_cast<VertexId>((first + k) % g.num_vertices());
  };
  ServiceConfig config;
  config.solver = options_for(Algorithm::kWasp);
  config.num_solvers = 1;
  QueryService svc(config);
  const auto attempts = [&](VertexId source) {
    const QueryResult r = svc.solve(g, {.source = source});
    EXPECT_EQ(r.outcome, Outcome::kServed);
    return r.attempts;
  };

  for (std::size_t k = 0; k < service::kCacheEntries; ++k)
    ASSERT_EQ(attempts(s(k)), 1) << k;
  // A hit makes the oldest entry the most recently used ...
  ASSERT_EQ(attempts(s(0)), 0);
  // ... so storing one more evicts the second-oldest instead.
  ASSERT_EQ(attempts(s(service::kCacheEntries)), 1);
  EXPECT_EQ(svc.metrics().gauge(obs::GaugeId::kCacheEntries),
            service::kCacheEntries);
  EXPECT_EQ(attempts(s(0)), 0);
  EXPECT_GE(attempts(s(1)), 1);
}

TEST(ServiceQuery, ByteBudgetEvictsBeforeTheCountCeiling) {
  const Graph g = make_wide_graph();
  const std::size_t capacity = service::cache_capacity(g.num_vertices());
  ASSERT_LT(capacity, service::kCacheEntries);
  ServiceConfig config;
  config.solver = options_for(Algorithm::kDijkstra);
  config.num_solvers = 1;
  QueryService svc(config);
  const auto attempts = [&](std::size_t source) {
    const QueryResult r =
        svc.solve(g, {.source = static_cast<VertexId>(source)});
    EXPECT_EQ(r.outcome, Outcome::kServed);
    return r.attempts;
  };

  for (std::size_t k = 0; k < capacity; ++k) ASSERT_EQ(attempts(k), 1) << k;
  EXPECT_EQ(svc.metrics().gauge(obs::GaugeId::kCacheBytes),
            service::kCacheBytes);
  // The budget is full: a hit makes source 0 the most recently used, so one
  // more answer evicts source 1, the least recently used.
  ASSERT_EQ(attempts(0), 0);
  ASSERT_EQ(attempts(capacity), 1);
  const obs::MetricsSnapshot m = svc.metrics();
  EXPECT_EQ(m.gauge(obs::GaugeId::kCacheEntries), capacity);
  EXPECT_LE(m.gauge(obs::GaugeId::kCacheBytes), service::kCacheBytes);
  EXPECT_EQ(attempts(0), 0);
  EXPECT_EQ(attempts(capacity), 0);
  EXPECT_GE(attempts(1), 1);
}

TEST(ServiceQuery, CacheGaugesCountEveryCachedAnswerByte) {
  VersionedGraph vg(make_wide_graph());
  const std::uint64_t n = vg.graph().num_vertices();
  const std::size_t capacity =
      service::cache_capacity(vg.graph().num_vertices());
  ServiceConfig config;
  config.solver = options_for(Algorithm::kDijkstra);
  config.num_solvers = 1;
  QueryService svc(config);
  // One 4 B distance per vertex per cached answer, nothing else.
  static_assert(sizeof(Distance) == 4);
  const auto expect_entries = [&](std::uint64_t entries) {
    const obs::MetricsSnapshot m = svc.metrics();
    EXPECT_EQ(m.gauge(obs::GaugeId::kCacheEntries), entries);
    EXPECT_EQ(m.gauge(obs::GaugeId::kCacheBytes), entries * 4 * n);
  };

  expect_entries(0);
  for (VertexId s = 0; s < 3; ++s)
    ASSERT_EQ(svc.solve(vg, {.source = s}).outcome, Outcome::kServed);
  expect_entries(3);
  // A repeat is a hit, not a second entry.
  ASSERT_EQ(svc.solve(vg, {.source = 0}).attempts, 0);
  expect_entries(3);

  // Past the budget: each further answer evicts one.
  for (VertexId s = 3; s < capacity + 5; ++s)
    ASSERT_EQ(svc.solve(vg, {.source = s}).outcome, Outcome::kServed);
  expect_entries(capacity);

  // update() keeps vg's kUpdateRepairs most recently used entries, each
  // repaired to the new version, and drops the rest.
  const VertexId u = 20;
  (void)svc.update(vg, GraphDelta().set_weight(u, u + 1, 99));
  expect_entries(service::kUpdateRepairs);
  EXPECT_EQ(svc.metrics().counter(CId::kRepairBatches) +
                svc.metrics().counter(CId::kRepairFullSolves),
            service::kUpdateRepairs);
}

TEST(ServiceCache, ConcurrentEvictionAndUpdatesServeExactAnswers) {
  // Two clients submit many distinct sources on a plain graph, so the cache
  // evicts by bytes, and interleave queries on a VersionedGraph that a third
  // thread updates. Every answer must be the reference at its version.
  const Graph g = make_wide_graph();
  VersionedGraph vg(make_wide_graph());
  ServiceConfig config;
  config.solver = options_for(Algorithm::kDijkstra);
  config.num_solvers = 2;
  config.queue_capacity = 16;
  QueryService svc(config);

  const auto checksum = [](std::span<const Distance> dist) {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (const Distance d : dist) h = (h ^ d) * 0x100000001B3ULL;
    return h;
  };
  struct Observed {
    bool versioned;
    VertexId source;
    std::uint64_t version;
    std::uint64_t sum;
  };
  constexpr int kPerClient = 100;  // plain sources per client: 200 > 128
  constexpr int kUpdates = 6;
  // The graph at each version, kept by the only thread that updates it.
  std::map<std::uint64_t, Graph> versions;
  versions.emplace(vg.version(), vg.graph());
  std::atomic<int> completed{0};
  std::vector<std::vector<Observed>> observed(2);
  std::vector<std::thread> clients;
  for (int t = 0; t < 2; ++t) {
    clients.emplace_back([&, t] {
      for (int k = 0; k < kPerClient; ++k) {
        const auto plain = static_cast<VertexId>(2 * k + t);
        const auto path = static_cast<VertexId>((2 * k + t) % 64);
        const QueryResult a = svc.solve(g, {.source = plain});
        const QueryResult b = svc.solve(vg, {.source = path});
        // EXPECT, not ASSERT: the updater waits on `completed`.
        EXPECT_EQ(a.outcome, Outcome::kServed);
        EXPECT_EQ(b.outcome, Outcome::kServed);
        auto& mine = observed[static_cast<std::size_t>(t)];
        mine.push_back({false, plain, a.graph_version, checksum(a.dist)});
        mine.push_back({true, path, b.graph_version, checksum(b.dist)});
        completed.fetch_add(1);
      }
    });
  }

  std::thread updater([&] {
    Xoshiro256 rng(kTestSeed);
    for (int k = 1; k <= kUpdates; ++k) {
      // Spread the updates over the clients' run.
      while (completed.load() < k * 2 * kPerClient / (kUpdates + 1))
        std::this_thread::yield();
      const auto u = static_cast<VertexId>(rng.next_below(63));
      const auto w = static_cast<Weight>(1 + rng.next_below(100));
      const std::uint64_t v =
          svc.update(vg, GraphDelta().set_weight(u, u + 1, w));
      versions.emplace(v, vg.graph());
    }
  });
  for (std::thread& c : clients) c.join();
  updater.join();

  for (const auto& per_client : observed) {
    for (const Observed& o : per_client) {
      const auto it = versions.find(o.version);
      if (o.versioned) {
        ASSERT_NE(it, versions.end()) << "answer at unknown version";
        EXPECT_EQ(checksum(dijkstra(it->second, o.source).dist), o.sum)
            << "source " << o.source << " version " << o.version;
      } else {
        EXPECT_EQ(o.version, 0u);
        EXPECT_EQ(checksum(dijkstra(g, o.source).dist), o.sum)
            << "plain source " << o.source;
      }
    }
  }
  const obs::MetricsSnapshot m = svc.metrics();
  EXPECT_LE(m.gauge(obs::GaugeId::kCacheBytes), service::kCacheBytes);
  EXPECT_EQ(m.gauge(obs::GaugeId::kCacheBytes),
            m.gauge(obs::GaugeId::kCacheEntries) * sizeof(Distance) *
                g.num_vertices());
  // Every plain answer ran and was stored: 200 answers, more than the
  // budget holds, which the byte gauge above stays within.
  EXPECT_GE(m.counter(CId::kQueriesServed) -
                m.counter(CId::kQueriesServedCached),
            2u * kPerClient);
}

TEST(ServiceQuery, ShedDowngradedToStaleCountsOnceAsServedStale) {
  VersionedGraph vg(make_small_graph());
  const VertexId source = pick_source_in_largest_component(vg.graph(), 11);

  BlockingObserver blocker;
  ServiceConfig config;
  config.solver = options_for(Algorithm::kBellmanFord);
  config.solver.observer = &blocker;
  config.num_solvers = 1;
  config.queue_capacity = 1;
  QueryService svc(config);

  // Prime the stale cache and leave its entry one version behind, so a
  // repeat is no fresh hit; then hold the only solver mid-run.
  const QueryResult primed = svc.solve(vg, {.source = source});
  ASSERT_EQ(primed.outcome, Outcome::kServed);
  step_version(vg, source);
  blocker.arm();
  auto running = svc.submit(vg, {.source = source});
  blocker.wait_until_blocked();

  // The victim fills the queue; the evictor, for another source so that it
  // does not coalesce onto the victim, sheds it.
  const VertexId other = (source + 1) % vg.graph().num_vertices();
  auto victim = svc.submit(vg, {.source = source, .allow_stale = true});
  auto evictor = svc.submit(vg, {.source = other, .priority = 1});

  const QueryResult rv = victim.get();
  EXPECT_EQ(rv.outcome, Outcome::kServedStale);
  EXPECT_EQ(rv.dist, primed.dist);
  blocker.release();
  EXPECT_EQ(running.get().outcome, Outcome::kServed);
  EXPECT_EQ(evictor.get().outcome, Outcome::kServed);

  // One outcome, one counter: the shed-then-downgraded query is
  // served_stale everywhere — tenant table and service counters must agree.
  const obs::MetricsSnapshot tenant = svc.metrics("default");
  EXPECT_EQ(tenant.counter(CId::kQueriesShed), 0u);
  EXPECT_EQ(tenant.counter(CId::kQueriesServedStale), 1u);
  const obs::MetricsSnapshot snap = svc.metrics();
  EXPECT_EQ(snap.counter(CId::kQueriesShed), 0u);
  EXPECT_EQ(snap.counter(CId::kQueriesServedStale), 1u);
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
  const VertexId other = (source + 1) % storage->num_vertices();
  const std::vector<Distance> other_reference =
      dijkstra(*storage, other).dist;

  blocker.arm();
  auto running = svc.submit(*storage, {.source = source});
  blocker.wait_until_blocked();
  // The victim fills the queue; the evictor, for another source so that it
  // does not coalesce onto the victim, sheds it.
  auto victim = svc.submit(*storage, {.source = source, .allow_stale = true});
  auto evictor = svc.submit(*storage, {.source = other, .priority = 1});

  // The cache holds an answer for the old graph only; the new graph has
  // none, so the shed query cannot degrade to it.
  const QueryResult rv = victim.get();
  EXPECT_EQ(rv.outcome, Outcome::kShed);
  EXPECT_TRUE(rv.dist.empty());
  blocker.release();
  EXPECT_EQ(running.get().dist, reference);
  EXPECT_EQ(evictor.get().dist, other_reference);
}

TEST(ServiceQuery, WatchdogCancelsOverdueRunThenQuarantinesAndRebuilds) {
  const Graph g = make_small_graph();
  const VertexId source = pick_source_in_largest_component(g, 11);
  const SsspOptions opts = options_for(Algorithm::kBellmanFord);
  const SsspResult fresh = Solver(opts).solve(g, source);

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
  // Another source: a cached answer for `source` would serve the overdue
  // query at submit, without a run.
  const VertexId warm = (source + 1) % g.num_vertices();
  ASSERT_EQ(svc.solve(g, {.source = warm}).outcome, Outcome::kServed);

  blocker.arm();
  auto overdue = svc.submit(
      g, {.source = source, .budget = std::chrono::milliseconds(300)});
  ASSERT_TRUE(blocker.wait_until_blocked_for(std::chrono::seconds(60)))
      << "solve never reached its first round; the deadline expired while "
         "the query was still queued";
  // Wait for the watchdog to notice the blown deadline.
  const auto watchdog_cancels = [&] {
    return svc.metrics().counter(CId::kWatchdogCancels);
  };
  for (int i = 0; i < 5000 && watchdog_cancels() == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_GE(watchdog_cancels(), 1u);
  blocker.release();

  EXPECT_EQ(overdue.get().outcome, Outcome::kDeadlineExpired);
  // The cancelled Solver was quarantined; the next query runs on a rebuilt
  // one and must be bit-identical to a fresh solve.
  const QueryResult next = svc.solve(g, {.source = source});
  EXPECT_EQ(next.outcome, Outcome::kServed);
  EXPECT_EQ(next.dist, fresh.dist);
  EXPECT_EQ(svc.metrics().counter(CId::kSolverRebuilds), 1u);
}

TEST(ServiceQuery, RetryBackoffIsDeterministicUnderSeedReplay) {
  const Graph g = make_small_graph();
  const VertexId source = pick_source_in_largest_component(g, 11);
  const std::uint64_t seed = kTestSeed;

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
  const auto base = static_cast<std::uint64_t>(service::kRetryBackoff.count());
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
  EXPECT_EQ(svc.metrics().counter(CId::kQueriesSubmitted), 0u);

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
  QueryService svc(config);

  blocker.arm();
  auto running = svc.submit(g, {.source = source});
  blocker.wait_until_blocked();
  auto queued = svc.submit(g, {.source = (source + 1) % g.num_vertices()});

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

TEST(ServiceAccounting, TenantCountersSumToServiceCounters) {
  // Two tenants drive one deterministic stream through every accounted
  // path: served, served from the cache, coalesced, rejected, served stale,
  // shed, failed and cancelled at shutdown. The per-tenant registries must
  // partition the service's kQueries* counters exactly.
  const Graph g = make_small_graph();
  VersionedGraph vg(make_small_graph());
  const VertexId hub = pick_source_in_largest_component(g, 11);
  const auto s = [&](VertexId k) { return (hub + k) % g.num_vertices(); };
  const std::string a = "interactive";
  const std::string b = "batch";

  BlockingObserver blocker;
  std::atomic<bool> fail{false};
  ServiceConfig config;
  config.solver = options_for(Algorithm::kBellmanFord);
  config.solver.observer = &blocker;
  config.num_solvers = 1;
  config.queue_capacity = 3;
  config.max_retries = 0;
  config.inject_failure = [&fail](int) {
    if (fail.load()) throw std::runtime_error("injected failure");
  };
  QueryService svc(config);
  int attempts = 0;
  const auto submit = [&](auto& graph, const QueryRequest& req) {
    ++attempts;
    return svc.submit(graph, req);
  };

  EXPECT_EQ(submit(g, {.source = s(1), .tenant = a}).get().outcome,
            Outcome::kServed);
  EXPECT_EQ(submit(vg, {.source = hub, .tenant = b}).get().outcome,
            Outcome::kServed);
  // Exactly current in the cache: served at submit, without a solve.
  EXPECT_EQ(submit(vg, {.source = hub, .tenant = a}).get().attempts, 0);
  // Now one version behind: a stale answer, no longer a fresh hit.
  step_version(vg, hub);
  fail.store(true);
  EXPECT_EQ(submit(g, {.source = s(2), .tenant = b}).get().outcome,
            Outcome::kFailed);
  fail.store(false);

  blocker.arm();
  auto running = submit(g, {.source = hub, .tenant = a});
  blocker.wait_until_blocked();
  auto q1 = submit(g, {.source = s(3), .tenant = a});
  auto q2 = submit(g, {.source = s(4), .tenant = b});
  auto rider = submit(g, {.source = s(4), .tenant = a});  // coalesces
  auto stale = submit(vg, {.source = hub, .tenant = b, .allow_stale = true});
  // Full, and priority 0 outranks nothing.
  EXPECT_THROW((void)submit(g, {.source = s(5), .tenant = b}),
               ServiceOverloadedError);
  // Each evicts the youngest priority-0 entry: first the stale-allowed one
  // (answered from the cache), then q2 (shed, rider included).
  auto hi1 = submit(g, {.source = s(6), .priority = 1, .tenant = a});
  auto hi2 = submit(g, {.source = s(7), .priority = 2, .tenant = a});
  EXPECT_EQ(stale.get().outcome, Outcome::kServedStale);
  EXPECT_EQ(q2.get().outcome, Outcome::kShed);
  EXPECT_EQ(rider.get().outcome, Outcome::kShed);

  // Shut down while the worker is held: the three queued queries are
  // cancelled before the held run resumes.
  std::thread stopper([&] { svc.shutdown(); });
  EXPECT_EQ(q1.get().outcome, Outcome::kCancelled);
  EXPECT_EQ(hi1.get().outcome, Outcome::kCancelled);
  EXPECT_EQ(hi2.get().outcome, Outcome::kCancelled);
  blocker.release();
  stopper.join();
  // The held run either finished or saw its cancelled token.
  const Outcome held = running.get().outcome;
  EXPECT_TRUE(held == Outcome::kServed || held == Outcome::kCancelled);

  const obs::MetricsSnapshot total = svc.metrics();
  const obs::MetricsSnapshot per_tenant[] = {svc.metrics(a), svc.metrics(b)};
  for (auto id = static_cast<std::size_t>(CId::kQueriesSubmitted);
       id <= static_cast<std::size_t>(CId::kQueriesFailed); ++id) {
    const auto c = static_cast<CId>(id);
    EXPECT_EQ(total.counter(c),
              per_tenant[0].counter(c) + per_tenant[1].counter(c))
        << obs::counter_name(c);
  }
  EXPECT_EQ(svc.metrics("nobody").counter(CId::kQueriesSubmitted), 0u);

  // Every submit call was accepted, merged into a queued entry, or refused.
  EXPECT_EQ(total.counter(CId::kQueriesSubmitted) +
                total.counter(CId::kQueriesCoalesced) +
                total.counter(CId::kQueriesRejected),
            static_cast<std::uint64_t>(attempts));
  // Every accepted query left with exactly one outcome.
  EXPECT_EQ(total.counter(CId::kQueriesSubmitted),
            total.counter(CId::kQueriesServed) +
                total.counter(CId::kQueriesServedStale) +
                total.counter(CId::kQueriesCancelled) +
                total.counter(CId::kQueriesDeadlineExpired) +
                total.counter(CId::kQueriesShed) +
                total.counter(CId::kQueriesFailed));
  EXPECT_LE(total.counter(CId::kQueriesServedCached),
            total.counter(CId::kQueriesServed));

  // The deterministic part of the stream, tenant by tenant.
  const obs::MetricsSnapshot& ta = per_tenant[0];
  const obs::MetricsSnapshot& tb = per_tenant[1];
  EXPECT_EQ(ta.counter(CId::kQueriesSubmitted), 6u);
  EXPECT_EQ(ta.counter(CId::kQueriesServedCached), 1u);
  EXPECT_EQ(ta.counter(CId::kQueriesCoalesced), 1u);
  EXPECT_EQ(ta.counter(CId::kQueriesServed) +
                ta.counter(CId::kQueriesCancelled),
            6u);
  EXPECT_EQ(tb.counter(CId::kQueriesSubmitted), 4u);
  EXPECT_EQ(tb.counter(CId::kQueriesServed), 1u);
  EXPECT_EQ(tb.counter(CId::kQueriesFailed), 1u);
  EXPECT_EQ(tb.counter(CId::kQueriesRejected), 1u);
  EXPECT_EQ(tb.counter(CId::kQueriesServedStale), 1u);
  EXPECT_EQ(tb.counter(CId::kQueriesShed), 1u);
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
