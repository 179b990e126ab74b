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
//    interval; the partial distance state is epoch-bumped away and the
//    Solver stays reusable.
//  * Admission control — past the queue high-watermark a new query either
//    evicts the lowest-priority queued entry (if it outranks one) or is
//    refused with ServiceOverloadedError. Same-source submits coalesce
//    onto one queued entry and share its future.
//  * Graceful degradation — a shed or queue-expired query marked
//    allow_stale is answered from a small same-source cache of previously
//    served distances (Outcome::kServedStale) instead of failing dry.
//    The same cache answers a VersionedGraph query outright when its entry
//    is exactly current (same graph uid, same version): the query resolves
//    kServed at submit, or at pickup if it queued behind an update(),
//    without a solve (QueryResult::attempts == 0). Plain-Graph entries
//    carry no version and serve only the stale degradation.
//  * Fault containment — a Solver whose run was deadline-cancelled or
//    threw a transient error is quarantined and rebuilt off the hot path;
//    transient failures retry with seeded, jittered exponential backoff,
//    capped per query.
//  * Live graph updates — update() applies a GraphDelta batch to a
//    VersionedGraph through an exclusive gate (new pickups pause, running
//    queries drain first, so no run ever observes a half-applied batch),
//    then repairs the cached answers to the new version instead of
//    dropping them (sssp/incremental.hpp). Those repaired answers are
//    exactly current, so the next query for a repaired source is served
//    from the cache instead of re-solving. QueryRequest::min_graph_version
//    lets a client demand at-least-this-fresh answers.
//
// Accounting flows through an obs::MetricsRegistry (the kQueries* /
// kSolverRebuilds / kWatchdogCancels counters) plus a per-tenant table;
// bench/qps_service drives the whole contract under a seeded open-loop
// arrival stream. Semantics are documented in docs/ROBUSTNESS.md.
#pragma once

#include <chrono>
#include <compare>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "graph/delta.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "sssp/common.hpp"
#include "sssp/incremental.hpp"
#include "sssp/solver.hpp"
#include "support/cancel.hpp"
#include "support/random.hpp"
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
  kFailed,           ///< retry budget exhausted (or permanent input error)
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
  std::vector<Distance> dist;  ///< filled for kServed / kServedStale
  std::string error;           ///< what() of the terminal failure (kFailed)
  double queue_ms = 0.0;       ///< submit -> worker pickup (or terminal)
  double solve_ms = 0.0;       ///< worker pickup -> completion, all attempts
  /// Solve attempts (retries = attempts - 1). 0 for a kServed answer taken
  /// from an exactly current cache entry (and for unrun outcomes).
  int attempts = 0;
  /// Backoff slept before each retry, in submit order — exposed so tests
  /// can pin the seeded jitter sequence byte-for-byte.
  std::vector<std::uint64_t> backoff_ns;
  std::uint64_t query_id = 0;
  /// Graph version the answer reflects (0 for plain-Graph submits; for
  /// kServedStale, the version the cached answer was computed at).
  std::uint64_t graph_version = 0;

  [[nodiscard]] bool ok() const {
    return outcome == Outcome::kServed || outcome == Outcome::kServedStale;
  }
};

/// Service-wide configuration. `solver` is the per-Solver option block
/// (algorithm, threads-per-solver, chaos engine, ...).
struct ServiceConfig {
  SsspOptions solver;
  int num_solvers = 2;              ///< worker threads, one Solver each
  std::size_t queue_capacity = 64;  ///< admission high-watermark
  /// Budget applied when a query's own budget is <= 0; <= 0 = no deadline.
  std::chrono::nanoseconds default_budget{0};
  /// Watchdog tick. Overdue runs are cancelled at most one tick after the
  /// polling sites would have noticed themselves (belt and braces: the
  /// in-run deadline polls usually fire first).
  std::chrono::nanoseconds watchdog_interval{std::chrono::milliseconds(1)};
  int max_retries = 2;  ///< extra solve attempts per query on transient errors
  /// Base backoff before retry k: base << k plus jitter in [0, base),
  /// drawn from a per-worker PRNG seeded from `seed` (deterministic replay).
  std::chrono::nanoseconds retry_backoff{std::chrono::microseconds(200)};
  std::uint64_t seed = 0x5EEDULL;
  bool coalesce = true;  ///< merge same-(graph, source) queued submits
  /// Same-source answer cache entries (FIFO eviction; 0 disables both the
  /// stale degradation and fresh cache hits).
  std::size_t stale_cache_entries = 16;
  /// Test hook: invoked before solve attempt `attempt` (0-based) on the
  /// worker thread; a throw is treated as that attempt's transient failure.
  /// Production leaves this empty — it exists to pin the retry/backoff
  /// path deterministically in tests.
  std::function<void(int attempt)> inject_failure;

  /// Rejects nonsensical knobs (num_solvers < 1, queue_capacity < 1,
  /// max_retries < 0, watchdog_interval <= 0) with InvalidOptionsError and
  /// validates the nested solver options.
  void validate() const;
};

/// Per-tenant accounting (all monotonically increasing).
struct TenantStats {
  std::uint64_t submitted = 0;
  std::uint64_t served = 0;
  std::uint64_t served_stale = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t deadline_expired = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::uint64_t coalesced = 0;
};

/// Snapshot of the service's accounting state.
struct ServiceStats {
  TenantStats totals;
  std::map<std::string, TenantStats> tenants;
  std::uint64_t retries = 0;           ///< solve attempts beyond the first
  std::uint64_t solver_rebuilds = 0;   ///< quarantined Solvers rebuilt
  std::uint64_t watchdog_cancels = 0;  ///< overdue runs the watchdog killed
  std::size_t queue_depth = 0;         ///< queued (not running) right now
  std::size_t running = 0;             ///< queries being solved right now
};

/// The Solver-fleet query front door. Thread-safe: submit()/solve()/stats()
/// may be called concurrently from any thread.
class QueryService {
 public:
  /// Validates `config`, spawns num_solvers workers (each builds its own
  /// Solver on its own thread) and the watchdog.
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
  /// overlay compacted, and then — instead of dropping them — every cached
  /// answer for this graph is repaired to the new version through a
  /// service-owned IncrementalSolver (off the query hot path; the common
  /// hot (graph, source) pair repairs incrementally, the rest re-solve).
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

  [[nodiscard]] ServiceStats stats() const;
  /// Cumulative service counters (the kQueries* block; per_thread[0] is the
  /// admission/watchdog shard, [1..num_solvers] the workers).
  [[nodiscard]] obs::MetricsSnapshot metrics() const;
  [[nodiscard]] const ServiceConfig& config() const { return config_; }

 private:
  struct Pending;
  using Entry = std::shared_ptr<Pending>;

  /// Answer-cache key. `graph` is VersionedGraph::uid() for versioned
  /// entries and Graph::stamp() for plain ones — never an address, so a
  /// graph rebuilt at a recycled address never inherits another graph's
  /// answers. Uids and stamps come from one counter and never collide.
  struct CacheKey {
    std::uint64_t graph = 0;
    VertexId source = 0;
    auto operator<=>(const CacheKey&) const = default;
  };

  /// One cache value: the distances plus the graph version they were
  /// computed at (0 for plain Graphs), so min_graph_version can filter and
  /// fresh_find_locked can tell an exactly current entry.
  struct CachedAnswer {
    std::shared_ptr<const std::vector<Distance>> dist;
    std::uint64_t version = 0;
  };

  void worker_main(int wid);
  void watchdog_main();
  [[nodiscard]] std::unique_ptr<Solver> build_solver() const;
  QueryResult execute(Pending& q, int wid, std::unique_ptr<Solver>& solver,
                      Xoshiro256& rng, bool& quarantine);
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
  /// Tenant + counter accounting for a terminal outcome. mu_ held.
  void account_locked(const std::string& tenant, Outcome outcome)
      WASP_REQUIRES(mu_);
  /// Caches `dist` (built by the caller outside mu_) as key's answer at
  /// `version`, evicting the oldest entry past stale_cache_entries. mu_
  /// held.
  void cache_store_locked(const CacheKey& key,
                          std::shared_ptr<const std::vector<Distance>> dist,
                          std::uint64_t version) WASP_REQUIRES(mu_);
  /// A stale-cache hit for `q` satisfying its min_graph_version, or nullptr.
  [[nodiscard]] const CachedAnswer* cache_find_locked(const Pending& q) const
      WASP_REQUIRES(mu_);
  /// The cached answer for (vg, source) if it is exactly current — same
  /// uid, same version as vg now — or nullptr. Such an entry is the exact
  /// answer at vg.version(): entries are stamped with the version they were
  /// solved or repaired at, and update() publishes only successful repairs.
  [[nodiscard]] const CachedAnswer* fresh_find_locked(
      const VersionedGraph& vg, VertexId source) const WASP_REQUIRES(mu_);
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

  /// Shard 0: admission/watchdog paths (all writes under mu_). Shards
  /// 1..num_solvers: one per worker thread (single-writer, no lock).
  mutable obs::MetricsRegistry registry_;
  std::map<std::string, TenantStats> tenants_ WASP_GUARDED_BY(mu_);

  /// Same-source answer cache, FIFO-evicted: stale degradation for any
  /// graph, fresh hits for exactly current versioned entries.
  std::map<CacheKey, CachedAnswer> stale_ WASP_GUARDED_BY(mu_);
  std::deque<CacheKey> stale_order_ WASP_GUARDED_BY(mu_);

  /// Service-owned repair solver for update()'s cache refresh, built
  /// lazily. Not mu_-guarded: touched only by the update() holder of the
  /// update_active_ gate, which is itself exclusive.
  std::unique_ptr<IncrementalSolver> repairer_;

  std::vector<std::thread> workers_;
  std::thread watchdog_;
};

}  // namespace wasp::service
