// wasp::service::QueryService — the resilient concurrent-query layer over a
// Solver fleet: the front door for many concurrent users (docs/ROBUSTNESS.md
// has its admission, deadline and cancellation contract).
//
// A QueryService owns a fixed pool of Solvers (one worker thread + team
// each) behind a bounded admission queue, and gives every query a
// robustness contract the bare Solver cannot:
//
//  * Deadlines — a per-query budget is armed on the query's CancelToken
//    (the polling sites in every parallel algorithm self-cancel past it)
//    AND enforced by a service watchdog thread that cancels overdue runs
//    and expires overdue queued entries, so a query never waits on a
//    budget it has already blown.
//  * Cooperative cancellation — an overdue or shed query unwinds through
//    the algorithms' own termination protocols within one polling
//    interval; the next solve refills the partial distance state, so the
//    Solver stays reusable.
//  * Admission control — past the queue high-watermark a new query either
//    evicts the lowest-priority queued entry (if it outranks one) or is
//    refused with ServiceOverloadedError. Same-source submits coalesce
//    onto one queued entry and share its future.
//  * Graceful degradation — a shed or queue-expired query marked
//    allow_stale is answered from a same-source cache of previously served
//    distances (Outcome::kServedStale) instead of failing dry. The cache is
//    bounded by the bytes its answers hold (kCacheBytes), not by a count
//    alone, so a small graph keeps its whole hot set and a large one stays
//    bounded.
//    The same cache answers a query outright when its entry is exactly
//    current (same key, same version; see CacheKey): the query resolves
//    kServed at submit, or at pickup if it queued behind a run or an
//    update() that stored the answer, without a solve
//    (QueryResult::attempts == 0). Both graph kinds take this fresh path.
//  * One Solver per worker, for the worker's life — a cancelled or failed
//    run leaves the Solver reusable (its contract), so a failed solve
//    resolves kFailed once, with what() as its error, and the worker serves
//    on.
//  * Live graph updates — update() applies a GraphDelta batch to a
//    VersionedGraph through an exclusive gate (new pickups pause, running
//    queries drain first, so no run ever observes a half-applied batch),
//    then repairs the graph's kUpdateRepairs most recently used cached
//    answers to the new version instead of dropping them
//    (sssp/incremental.hpp), and drops its older ones. Those repaired
//    answers are exactly current, so the next query for a repaired source
//    is served from the cache instead of re-solving.
//    QueryRequest::min_graph_version lets a client demand
//    at-least-this-fresh answers.
//
// Accounting flows through one obs::MetricsRegistry (the kQueries* /
// kWatchdogCancels counters), read through metrics(), and
// a per-tenant registry of the same kQueries* counters, read through
// metrics(tenant). bench/qps_service drives queries under a seeded
// open-loop arrival stream; update() is driven by perfbench's live_traffic
// and tests/test_incremental.cpp. Semantics are documented in
// docs/ROBUSTNESS.md.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "graph/delta.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "sssp/answer.hpp"
#include "sssp/common.hpp"
#include "sssp/solver.hpp"
#include "support/cancel.hpp"
#include "support/thread_safety.hpp"

namespace wasp::service {

/// The service's wall clock (the one CancelToken deadlines are armed on).
using Clock = CancelToken::Clock;

/// How a query left the service. kServed / kServedStale carry distances;
/// the rest are terminal without a (fresh) answer.
enum class Outcome : std::uint8_t {
  kServed,           ///< solved within budget; dist is fresh
  kServedStale,      ///< degraded to a cached same-source result
  kCancelled,        ///< explicit cancel (service shutdown / user request)
  kDeadlineExpired,  ///< budget blown — queued too long or cancelled mid-run
  kShed,             ///< evicted from the queue by a higher-priority query
  kFailed,           ///< the solve threw; error holds its what()
};

/// Name of `o` ("served", "served_stale", "cancelled", ...).
const char* to_string(Outcome o);

/// One query, fully described. Designated-initializer friendly:
///
///   svc.submit(g, {.source = s, .priority = 2,
///                  .budget = std::chrono::milliseconds(5)});
///
/// validate() runs upfront in submit() (like SsspOptions::validate()), so a
/// malformed request throws there instead of resolving its future kFailed.
struct QueryRequest {
  VertexId source = 0;  ///< must be < g.num_vertices() (checked in submit)
  int priority = 0;     ///< higher wins queue order; lowest sheds first
  /// Absolute wall-clock deadline; Clock::time_point::max() = unbounded.
  /// The effective deadline is the tighter of this and submit-time + budget.
  Clock::time_point deadline = Clock::time_point::max();
  /// Wall-clock budget from submit() (queueing included); <= 0 uses the
  /// service default_budget (which may itself be "none").
  std::chrono::nanoseconds budget{0};
  std::string tenant = "default";  ///< accounting + shedding identity
  /// Smallest graph version this query may be answered against. Only
  /// meaningful for the VersionedGraph overloads (plain Graphs are version
  /// 0): submit() throws InvalidOptionsError when the graph is older, and a
  /// stale-cache hit is only served if it was computed at >= this version.
  std::uint64_t min_graph_version = 0;
  /// Permit a cached same-source answer when shed or expired in queue.
  bool allow_stale = false;

  /// Rejects a negative budget or an empty tenant with InvalidOptionsError.
  /// (source range and min_graph_version need the graph; submit checks
  /// them.)
  void validate() const;
};

/// What a query's future resolves to. Never an exception: every accepted
/// query resolves with a typed Outcome (only submit() itself throws).
struct QueryResult {
  Outcome outcome = Outcome::kFailed;
  /// Filled for kServed / kServedStale. A shared, immutable buffer (no
  /// copy): a cached answer is the cache's own buffer, and a served run's
  /// answer becomes the cache's. For an answer update() repaired, dropping
  /// the result lets the repair Solver rewrite the buffer into a later
  /// version (sssp/incremental.hpp).
  Answer dist;
  std::string error;           ///< what() of the terminal failure (kFailed)
  double queue_ms = 0.0;       ///< submit -> worker pickup (or terminal)
  double solve_ms = 0.0;       ///< worker pickup -> completion
  /// 1 when a solve ran, 0 otherwise (a kServed answer taken from an
  /// exactly current cache entry, or an unrun outcome).
  int attempts = 0;
  std::uint64_t query_id = 0;
  /// Graph version the answer reflects (0 for plain-Graph submits; for
  /// kServedStale, the version the cached answer was computed at).
  std::uint64_t graph_version = 0;

  [[nodiscard]] bool ok() const {
    return outcome == Outcome::kServed || outcome == Outcome::kServedStale;
  }
};

/// The same-source answer cache serves both the stale degradation and fresh
/// hits. A store evicts the least recently used entries until both limits
/// below hold, but never the entry just stored, so an answer larger than
/// the whole budget is still cached, alone.
///
/// Bytes of the cached answers: 16 answers of a 2^20-vertex graph, so a
/// small graph keeps its whole hot set and a large one stays bounded.
inline constexpr std::size_t kCacheBytes = std::size_t{64} << 20;
/// Entry ceiling, which keeps each lookup's linear scan short.
inline constexpr std::size_t kCacheEntries = 256;
/// Cached answers of one graph that update() repairs, the most recently
/// used first; it drops that graph's older entries instead.
inline constexpr std::size_t kUpdateRepairs = 16;

/// Answers of an n-vertex graph the cache holds at once (at least one).
constexpr std::size_t cache_capacity(VertexId n) {
  const std::size_t bytes = std::max<std::size_t>(1, n) * sizeof(Distance);
  return std::clamp<std::size_t>(kCacheBytes / bytes, 1, kCacheEntries);
}

/// Service-wide configuration. `solver` is the per-Solver option block
/// (algorithm, threads-per-solver, observer, ...).
struct ServiceConfig {
  SsspOptions solver;
  int num_solvers = 2;              ///< worker threads, one Solver each
  std::size_t queue_capacity = 64;  ///< admission high-watermark
  /// Budget applied when a query's own budget is <= 0; <= 0 = no deadline.
  std::chrono::nanoseconds default_budget{0};
  /// Watchdog tick: each tick cancels the overdue runs and expires the
  /// overdue queued queries. Every parallel algorithm polls the deadline
  /// itself: at round tops (sssp/rounds.hpp), every 4096 vertices and when
  /// idle (sssp/async_loop.hpp, and Wasp's own loop), and at Wasp's steal
  /// sweeps. Between those polls the hot loops read only the cancel flag,
  /// which the watchdog sets. kDijkstra polls only before it starts, so a
  /// kDijkstra run is never cancelled mid-run.
  std::chrono::nanoseconds watchdog_interval{std::chrono::milliseconds(1)};
  /// Read by nothing: the service draws no random numbers. It stays only
  /// because existing callers set it.
  std::uint64_t seed = 0x5EEDULL;

  /// Rejects nonsensical knobs (num_solvers < 1, queue_capacity < 1,
  /// watchdog_interval <= 0) with InvalidOptionsError and validates the
  /// nested solver options.
  void validate() const;
};

/// The Solver-fleet query front door. Thread-safe: submit()/solve()/
/// metrics() may be called concurrently from any thread.
class QueryService {
 public:
  /// Validates `config`, spawns num_solvers workers (each builds its own
  /// Solver on its own thread and keeps it) and the watchdog.
  explicit QueryService(ServiceConfig config);
  /// Equivalent to shutdown().
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Enqueues a query. Returns a future that always resolves to a
  /// QueryResult (see Outcome). Validates `req` upfront: throws
  /// InvalidOptionsError on a malformed request, InvalidSourceError when
  /// req.source is out of range, ServiceOverloadedError when the queue is
  /// at capacity and the query outranks nothing, and std::logic_error after
  /// shutdown(). `g` must outlive the query.
  std::shared_future<QueryResult> submit(const Graph& g,
                                         const QueryRequest& req);

  /// Versioned front door: like above, but additionally throws
  /// InvalidOptionsError when vg.version() < req.min_graph_version.
  /// `vg` must only be mutated through update() once queries are in flight
  /// (update() holds the exclusive gate the workers respect); in exchange
  /// the answer is guaranteed to reflect vg's version at pickup time
  /// (QueryResult::graph_version).
  std::shared_future<QueryResult> submit(VersionedGraph& vg,
                                         const QueryRequest& req);

  /// Convenience: submit() and wait.
  QueryResult solve(const Graph& g, const QueryRequest& req);
  QueryResult solve(VersionedGraph& vg, const QueryRequest& req);

  /// Applies `batch` to `vg` through the exclusive update gate: new pickups
  /// pause, running queries drain, the batch is applied and any structural
  /// overlay compacted, and then — instead of dropping them — the
  /// kUpdateRepairs most recently used cached answers for this graph are
  /// repaired to the new version through the versioned solve() of a
  /// service-owned Solver (off the query hot path), each from its own entry:
  /// only an entry older than vg.journal_floor() re-solves. The graph's
  /// older entries are dropped, so one update() runs at most kUpdateRepairs
  /// repairs and leaves every entry of vg at the new version.
  /// The repaired answers are republished at the new version only after
  /// every repair succeeded; from then on a query for one of those sources
  /// is served from the cache without a solve. Queued queries survive an
  /// update untouched: a queued query for a repaired source is served from
  /// the republished answer at pickup, the rest run against the new
  /// version. Returns the new vg.version(). Throws whatever
  /// VersionedGraph::apply throws (validation errors leave the graph
  /// unchanged; see apply()'s contract for mid-batch resource failures)
  /// and std::logic_error after shutdown().
  std::uint64_t update(VersionedGraph& vg, const GraphDelta& batch);

  /// Cancels queued + running queries, waits for the fleet to drain, and
  /// rejects further submits. Idempotent.
  void shutdown();

  /// Cumulative service counters (the kQueries* block, kWatchdogCancels
  /// and update()'s compaction and repair counters) in a one-shard
  /// snapshot, plus the answer cache's current size as the kCacheBytes /
  /// kCacheEntries gauges.
  [[nodiscard]] obs::MetricsSnapshot metrics() const;
  /// Cumulative kQueries* counters of one tenant (QueryRequest::tenant), in
  /// a one-shard snapshot; all zero for a tenant never seen. Summed over
  /// every tenant, each equals the same counter in metrics().
  [[nodiscard]] obs::MetricsSnapshot metrics(std::string_view tenant) const;
  [[nodiscard]] const ServiceConfig& config() const { return config_; }

 private:
  struct Pending;
  using Entry = std::shared_ptr<Pending>;

  /// Answer-cache key. `graph` is VersionedGraph::uid() for versioned
  /// entries and Graph::stamp() for plain ones — never an address, so a
  /// graph rebuilt at a recycled address never inherits another graph's
  /// answers. Uids and stamps come from one counter and never collide.
  ///
  /// Why a plain entry is exact for as long as its key exists: a Graph
  /// changes only through a VersionedGraph, which renews the stamp after
  /// each patch, and a copy draws a fresh one. So (stamp, source) names
  /// exactly one answer, and plain entries, at version 0, take the same
  /// fresh path as versioned ones at (uid, version).
  struct CacheKey {
    std::uint64_t graph = 0;
    VertexId source = 0;
    bool operator==(const CacheKey&) const = default;
  };

  /// One cache entry: the distances for `key` plus the graph version they
  /// were computed at (0 for plain Graphs), so min_graph_version can filter
  /// and fresh_find_locked can tell an exactly current entry. Every hit
  /// shares `dist` with its QueryResult.
  struct CachedAnswer {
    CacheKey key;
    Answer dist;
    std::uint64_t version = 0;
  };

  void worker_main(int wid);
  void watchdog_main();
  [[nodiscard]] std::unique_ptr<Solver> build_solver() const;
  /// Runs q once on `solver` and maps how the run ended to an Outcome.
  QueryResult execute(Pending& q, Solver& solver);
  /// Exactly one of `g` / `vg` is non-null. The graph is resolved (and all
  /// vg reads happen) under mu_: update() mutates vg with mu_ held, so any
  /// unlocked access from the submit path would race it.
  std::shared_future<QueryResult> submit_impl(const Graph* g,
                                              const VersionedGraph* vg,
                                              QueryRequest req);
  /// submit_impl's queue path for a validated request that missed the
  /// cache: coalescing, admission control, enqueue. mu_ held.
  std::shared_future<QueryResult> enqueue_locked(const Graph& g,
                                                 const VersionedGraph* vg,
                                                 const CacheKey& key,
                                                 QueryRequest req)
      WASP_REQUIRES(mu_);
  /// Picks the best queued entry (highest priority, FIFO within). mu_ held
  /// (TSA-enforced via REQUIRES, like all *_locked helpers below).
  Entry pop_next_locked() WASP_REQUIRES(mu_);
  /// Resolves a queued entry without running it (shed / expired / shutdown),
  /// downgrading to the stale cache when allowed. mu_ held.
  void finish_unrun_locked(const Entry& e, Outcome outcome)
      WASP_REQUIRES(mu_);
  /// Bumps kQueries* counter `id` in the service registry and in `tenant`'s.
  /// mu_ held.
  void count_locked(const std::string& tenant, obs::CounterId id)
      WASP_REQUIRES(mu_);
  /// Counts a terminal outcome for `tenant`. mu_ held.
  void account_locked(const std::string& tenant, Outcome outcome)
      WASP_REQUIRES(mu_);
  /// Caches `dist` (shared, not copied) as key's answer at `version`, most
  /// recently used, then evicts the least recently used entries until the
  /// cache is within kCacheBytes and kCacheEntries. The new entry always
  /// stays.
  void cache_store_locked(const CacheKey& key, Answer dist,
                          std::uint64_t version) WASP_REQUIRES(mu_);
  /// The entry for `key` if its version lies in [lo, hi], or nullptr. A hit
  /// is a use: it moves the entry to the back of cache_. mu_ held.
  const CachedAnswer* cache_hit_locked(const CacheKey& key, std::uint64_t lo,
                                       std::uint64_t hi) WASP_REQUIRES(mu_);
  /// A stale-cache hit for `q` satisfying its min_graph_version, or nullptr.
  [[nodiscard]] const CachedAnswer* stale_find_locked(const Pending& q)
      WASP_REQUIRES(mu_);
  /// The entry for `key` if it was computed at `version`, the graph's
  /// version now (0 for a plain Graph), or nullptr. Entries carry the
  /// version they were solved or repaired at, so such a hit is exact.
  [[nodiscard]] const CachedAnswer* fresh_find_locked(const CacheKey& key,
                                                      std::uint64_t version)
      WASP_REQUIRES(mu_);
  /// Accounts a fresh cache hit for `tenant`: served, and served_cached.
  void account_cached_locked(const std::string& tenant) WASP_REQUIRES(mu_);
  [[nodiscard]] bool any_running_locked() const WASP_REQUIRES(mu_);

  ServiceConfig config_;
  mutable Mutex mu_;  ///< TSA capability guarding all fields marked below
  /// _any variants: they wait through wasp::MutexLock (BasicLockable)
  /// because std::condition_variable demands a std::unique_lock<std::mutex>,
  /// which TSA cannot see through.
  std::condition_variable_any work_cv_;      ///< workers: queue or stop
  std::condition_variable_any watchdog_cv_;  ///< watchdog tick / stop
  std::condition_variable_any update_cv_;    ///< updaters: drain / gate free
  std::deque<Entry> queue_ WASP_GUARDED_BY(mu_);
  /// Slot per worker, null when idle.
  std::vector<Entry> running_ WASP_GUARDED_BY(mu_);
  bool stopping_ WASP_GUARDED_BY(mu_) = false;
  /// Exclusive update gate: while set, workers pause pickups and exactly
  /// one update() owns graph mutation + cache repair.
  bool update_active_ WASP_GUARDED_BY(mu_) = false;
  std::uint64_t next_id_ WASP_GUARDED_BY(mu_) = 1;

  /// One shard; every write happens under mu_.
  mutable obs::MetricsRegistry registry_;
  /// One single-shard registry per tenant, holding that tenant's share of
  /// the kQueries* counters (count_locked bumps both).
  std::map<std::string, obs::MetricsRegistry, std::less<>> tenants_
      WASP_GUARDED_BY(mu_);

  /// Same-source answer cache, at most kCacheEntries and kCacheBytes (see
  /// kCacheBytes), in order of last use (front = least recent, evicted
  /// first). Serves fresh hits and the stale degradation for both graph
  /// kinds.
  std::vector<CachedAnswer> cache_ WASP_GUARDED_BY(mu_);
  /// Bytes of the answers in cache_, kept as entries come and go.
  std::size_t cache_bytes_ WASP_GUARDED_BY(mu_) = 0;

  /// Service-owned Solver whose versioned solve() refreshes update()'s
  /// cache, built on the first repair. Not mu_-guarded: touched only by the
  /// update() holder of the update_active_ gate, which is itself exclusive.
  std::unique_ptr<Solver> repairer_;

  std::vector<std::thread> workers_;
  std::thread watchdog_;
};

}  // namespace wasp::service
