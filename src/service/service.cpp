#include "service/service.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "support/errors.hpp"

namespace wasp::service {

namespace {

using CId = obs::CounterId;

double ms_between(CancelToken::Clock::time_point from,
                  CancelToken::Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             to - from)
      .count();
}

}  // namespace

const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::kServed: return "served";
    case Outcome::kServedStale: return "served_stale";
    case Outcome::kCancelled: return "cancelled";
    case Outcome::kDeadlineExpired: return "deadline_expired";
    case Outcome::kShed: return "shed";
    case Outcome::kFailed: return "failed";
  }
  return "?";
}

void QueryRequest::validate() const {
  if (budget.count() < 0)
    throw InvalidOptionsError("QueryRequest: budget must be >= 0");
  if (tenant.empty())
    throw InvalidOptionsError("QueryRequest: tenant must be non-empty");
}

void ServiceConfig::validate() const {
  if (num_solvers < 1)
    throw InvalidOptionsError("ServiceConfig: num_solvers must be >= 1");
  if (queue_capacity < 1)
    throw InvalidOptionsError("ServiceConfig: queue_capacity must be >= 1");
  if (max_retries < 0)
    throw InvalidOptionsError("ServiceConfig: max_retries must be >= 0");
  if (watchdog_interval.count() <= 0)
    throw InvalidOptionsError("ServiceConfig: watchdog_interval must be > 0");
  solver.validate();
}

/// One accepted query: identity, request knobs, timing anchors, the token
/// shared with the in-flight run, and the promise clients wait on.
struct QueryService::Pending {
  const Graph* graph = nullptr;
  /// Non-null for versioned submits; the worker stamps the run's version
  /// from it at pickup (safe: reads race with nothing — update() drains
  /// running queries and blocks pickups before mutating).
  const VersionedGraph* versioned = nullptr;
  /// Cache slot of (graph, source), fixed at submit: coalescing, the
  /// answer cache and the fresh check at pickup all key on it.
  CacheKey key;
  QueryRequest req;
  Clock::time_point submitted;
  Clock::time_point deadline;  // Clock::time_point::max() when unbounded
  std::shared_ptr<CancelToken> token = std::make_shared<CancelToken>();
  std::promise<QueryResult> promise;
  std::shared_future<QueryResult> future;
  std::uint64_t id = 0;
  /// Graph version the run answers, stamped at worker pickup (0 for plain
  /// Graphs). Stable for the whole run: updates drain running queries.
  std::uint64_t run_version = 0;
};

QueryService::QueryService(ServiceConfig config)
    // validate() runs before any member depends on the knobs (the registry
    // ctor would otherwise throw its own error for num_solvers < 1).
    : config_((config.validate(), std::move(config))),
      running_(static_cast<std::size_t>(config_.num_solvers)),
      registry_(config_.num_solvers + 1) {
  workers_.reserve(static_cast<std::size_t>(config_.num_solvers));
  for (int w = 0; w < config_.num_solvers; ++w)
    workers_.emplace_back([this, w] { worker_main(w); });
  watchdog_ = std::thread([this] { watchdog_main(); });
}

QueryService::~QueryService() { shutdown(); }

std::unique_ptr<Solver> QueryService::build_solver() const {
  SsspOptions opt = config_.solver;
  opt.cancel = nullptr;  // installed per query
  return std::make_unique<Solver>(std::move(opt));
}

std::shared_future<QueryResult> QueryService::submit_impl(
    const Graph* graph, const VersionedGraph* vg, QueryRequest req) {
  req.validate();

  std::shared_ptr<const std::vector<Distance>> cached;
  QueryResult r;
  {
    MutexLock lock(mu_);
    if (stopping_)
      throw std::logic_error("QueryService::submit: service is shut down");
    // Resolve the graph under mu_ and never earlier: update() phase 1 mutates
    // the VersionedGraph (apply + compact) with mu_ held, so an unlocked
    // flat()/num_vertices() read would race it. flat() (not graph()) on
    // purpose: submit never mutates, and the service contract routes all
    // mutation through update(), which always leaves vg compacted.
    const Graph& g = vg != nullptr ? vg->flat() : *graph;
    if (req.source >= g.num_vertices()) {
      std::ostringstream os;
      os << "QueryService::submit: source " << req.source
         << " out of range for graph with " << g.num_vertices() << " vertices";
      throw InvalidSourceError(os.str());
    }
    // Plain Graphs are version 0, so they reject any positive minimum.
    const std::uint64_t version = vg != nullptr ? vg->version() : 0;
    if (version < req.min_graph_version) {
      std::ostringstream os;
      os << "QueryService::submit: min_graph_version " << req.min_graph_version
         << " not yet reached (graph is at version " << version << ")";
      throw InvalidOptionsError(os.str());
    }
    // Fresh path: an exactly current answer (republished by update() or
    // stored by a run at this version) is the answer; no solve, no queue.
    // Plain Graphs have no version, so they never take it; a request
    // already past its absolute deadline queues and expires as before.
    if (vg != nullptr && req.deadline > Clock::now()) {
      if (const CachedAnswer* hit = fresh_find_locked(*vg, req.source))
        cached = hit->dist;
    }
    if (cached == nullptr) {
      const CacheKey key{vg != nullptr ? vg->uid() : g.stamp(), req.source};
      return enqueue_locked(g, vg, key, std::move(req));
    }
    r.query_id = next_id_++;
    r.graph_version = vg->version();
    registry_.shard(0).inc(CId::kQueriesSubmitted);
    tenants_[req.tenant].submitted += 1;
    account_cached_locked(req.tenant);
  }
  // The O(V) copy happens outside mu_; the shared_ptr keeps the answer
  // alive even if an update() replaces the entry meanwhile.
  r.outcome = Outcome::kServed;
  r.dist = *cached;
  std::promise<QueryResult> done;
  done.set_value(std::move(r));
  return done.get_future().share();
}

std::shared_future<QueryResult> QueryService::enqueue_locked(
    const Graph& g, const VersionedGraph* vg, const CacheKey& key,
    QueryRequest req) {
  obs::MetricsShard& adm = registry_.shard(0);

  const auto now = Clock::now();
  std::chrono::nanoseconds budget =
      req.budget.count() > 0 ? req.budget : config_.default_budget;
  Clock::time_point deadline =
      budget.count() > 0 ? now + budget : Clock::time_point::max();
  deadline = std::min(deadline, req.deadline);

  // Same-source coalescing: ride an already-queued entry and share its
  // future. The entry inherits the laxer deadline, the higher priority and
  // the rider's stale-answer permission, so no rider loses an answer it
  // would have gotten alone. (min_graph_version needs no merge: versions
  // only grow, so a check passed at submit holds for the shared answer.)
  if (config_.coalesce) {
    for (const Entry& e : queue_) {
      if (e->key == key) {
        adm.inc(CId::kQueriesCoalesced);
        tenants_[req.tenant].coalesced += 1;
        e->deadline = std::max(e->deadline, deadline);
        e->req.priority = std::max(e->req.priority, req.priority);
        e->req.allow_stale = e->req.allow_stale || req.allow_stale;
        e->req.min_graph_version =
            std::max(e->req.min_graph_version, req.min_graph_version);
        if (e->deadline == Clock::time_point::max()) {
          e->token->reset();  // safe: not running yet; drops the armed deadline
        } else {
          e->token->set_deadline(e->deadline);
        }
        return e->future;
      }
    }
  }

  // Admission control: past the high-watermark, either shed the worst
  // queued entry (if the newcomer outranks it) or refuse the newcomer.
  if (queue_.size() >= config_.queue_capacity) {
    auto victim = queue_.end();
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      // <= prefers the youngest among equally-low entries, so FIFO order
      // of the survivors is preserved.
      if (victim == queue_.end() ||
          (*it)->req.priority <= (*victim)->req.priority) {
        victim = it;
      }
    }
    if (victim != queue_.end() && (*victim)->req.priority < req.priority) {
      Entry shed = *victim;
      queue_.erase(victim);
      finish_unrun_locked(shed, Outcome::kShed);
    } else {
      adm.inc(CId::kQueriesRejected);
      tenants_[req.tenant].rejected += 1;
      std::ostringstream os;
      os << "QueryService::submit: queue full (" << queue_.size() << "/"
         << config_.queue_capacity << ") and priority " << req.priority
         << " outranks no queued query";
      throw ServiceOverloadedError(os.str());
    }
  }

  Entry e = std::make_shared<Pending>();
  e->graph = &g;
  e->versioned = vg;
  e->key = key;
  e->req = std::move(req);
  e->submitted = now;
  e->deadline = deadline;
  // Arm the token too: the run's own polling sites then enforce the budget
  // even between watchdog ticks.
  if (deadline != Clock::time_point::max()) e->token->set_deadline(deadline);
  e->id = next_id_++;
  e->future = e->promise.get_future().share();
  queue_.push_back(e);
  adm.inc(CId::kQueriesSubmitted);
  tenants_[e->req.tenant].submitted += 1;
  work_cv_.notify_one();
  return e->future;
}

std::shared_future<QueryResult> QueryService::submit(const Graph& g,
                                                     const QueryRequest& req) {
  return submit_impl(&g, nullptr, req);
}

std::shared_future<QueryResult> QueryService::submit(VersionedGraph& vg,
                                                     const QueryRequest& req) {
  // The flat-CSR resolution happens inside submit_impl under mu_ — doing it
  // here would race a concurrent update()'s apply/compact.
  return submit_impl(nullptr, &vg, req);
}

QueryResult QueryService::solve(const Graph& g, const QueryRequest& req) {
  return submit(g, req).get();
}

QueryResult QueryService::solve(VersionedGraph& vg, const QueryRequest& req) {
  return submit(vg, req).get();
}

std::uint64_t QueryService::update(VersionedGraph& vg,
                                   const GraphDelta& batch) {
  // Phase 1 (under mu_): take the exclusive gate, drain the running set,
  // apply + compact. Workers cannot pick up while update_active_ is set, so
  // nothing reads the CSR while apply() patches it or compact() replaces it.
  std::vector<VertexId> repair_sources;
  std::uint64_t version = 0;
  {
    MutexLock lock(mu_);
    while (!stopping_ && update_active_) update_cv_.wait(lock);
    if (stopping_)
      throw std::logic_error("QueryService::update: service is shut down");
    update_active_ = true;
    while (!stopping_ && any_running_locked()) update_cv_.wait(lock);
    if (stopping_) {
      update_active_ = false;
      throw std::logic_error("QueryService::update: service is shut down");
    }

    const std::uint64_t compactions_before = vg.compactions();
    const std::uint64_t compacted_arcs_before = vg.compacted_arcs();
    try {
      version = vg.apply(batch);
      // Fold any structural overlay while the gate is exclusive.
      (void)vg.graph();
    } catch (...) {
      update_active_ = false;
      update_cv_.notify_all();
      work_cv_.notify_all();
      // Validation errors leave the graph unchanged; a mid-batch resource
      // failure bumps the version and invalidates the journal, so the
      // cached answers' older version stamps stay truthful either way.
      throw;
    }
    registry_.shard(0).inc(CId::kGraphCompactions,
                           vg.compactions() - compactions_before);
    registry_.shard(0).inc(CId::kGraphCompactedArcs,
                           vg.compacted_arcs() - compacted_arcs_before);

    for (const auto& [k, cached] : stale_) {
      (void)cached;
      if (k.graph == vg.uid()) repair_sources.push_back(k.source);
    }
  }

  // Phase 2 (gate held, mu_ released): repair the cached answers to the new
  // version instead of dropping them. vg is quiescent now — workers are
  // gated and concurrent updaters queue on the gate — so the repairer may
  // read it freely while submits and stats proceed under mu_. The cache
  // takes the repairer's answer buffer itself: the repairer never writes a
  // published buffer again, so readers still holding it are safe.
  struct Repaired {
    VertexId source;
    std::shared_ptr<const std::vector<Distance>> dist;
    RepairStats stats;
  };
  std::vector<Repaired> repaired;
  repaired.reserve(repair_sources.size());
  try {
    for (const VertexId source : repair_sources) {
      if (repairer_ == nullptr) {
        SsspOptions opt = config_.solver;
        opt.cancel = nullptr;
        repairer_ = std::make_unique<IncrementalSolver>(std::move(opt));
      }
      (void)repairer_->solve(vg, source);
      repaired.push_back(
          {source, repairer_->answer(), repairer_->last_repair()});
    }
  } catch (...) {
    // A failed repair leaves the remaining entries at their old version
    // stamp — still served only to queries whose min_graph_version allows.
    MutexLock lock(mu_);
    update_active_ = false;
    update_cv_.notify_all();
    work_cv_.notify_all();
    throw;
  }

  // Phase 3 (under mu_): publish the repaired answers and release the gate.
  // Only now, with every repair done, do the entries carry the new version
  // and become fresh hits (fresh_find_locked); a failed phase 2 published
  // nothing and left them at their old version.
  {
    MutexLock lock(mu_);
    obs::MetricsShard& adm = registry_.shard(0);
    for (Repaired& r : repaired) {
      auto it = stale_.find(CacheKey{vg.uid(), r.source});
      if (it != stale_.end())  // still cached (no eviction races the gate)
        it->second = CachedAnswer{std::move(r.dist), version};
      if (!r.stats.full_solve) {
        adm.inc(CId::kRepairBatches, r.stats.batches);
        adm.inc(CId::kRepairConeVertices, r.stats.cone_vertices);
        adm.inc(CId::kRepairSeedVertices, r.stats.seed_vertices);
      }
    }
    update_active_ = false;
  }
  update_cv_.notify_all();
  work_cv_.notify_all();
  return version;
}

QueryService::Entry QueryService::pop_next_locked() {
  auto best = queue_.begin();
  for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it) {
    if ((*it)->req.priority > (*best)->req.priority) best = it;
  }
  Entry e = *best;
  queue_.erase(best);
  return e;
}

bool QueryService::any_running_locked() const {
  for (const Entry& e : running_)
    if (e != nullptr) return true;
  return false;
}

const QueryService::CachedAnswer* QueryService::cache_find_locked(
    const Pending& q) const {
  auto hit = stale_.find(q.key);
  if (hit == stale_.end()) return nullptr;
  // A cached answer older than the query's floor is not an answer at all.
  if (hit->second.version < q.req.min_graph_version) return nullptr;
  return &hit->second;
}

const QueryService::CachedAnswer* QueryService::fresh_find_locked(
    const VersionedGraph& vg, VertexId source) const {
  auto hit = stale_.find(CacheKey{vg.uid(), source});
  // Exactly this version: an entry one batch behind is a stale answer.
  if (hit != stale_.end() && vg.version() == hit->second.version)
    return &hit->second;
  return nullptr;
}

void QueryService::account_cached_locked(const std::string& tenant) {
  registry_.shard(0).inc(CId::kQueriesServedCached);
  account_locked(tenant, Outcome::kServed);
}

void QueryService::finish_unrun_locked(const Entry& e, Outcome outcome) {
  QueryResult r;
  r.query_id = e->id;
  r.queue_ms = ms_between(e->submitted, Clock::now());
  r.outcome = outcome;
  if (e->req.allow_stale) {
    if (const CachedAnswer* hit = cache_find_locked(*e)) {
      r.outcome = Outcome::kServedStale;
      r.dist = *hit->dist;
      r.graph_version = hit->version;
    }
  }
  // Counted after the stale downgrade: a shed query answered from the cache
  // is served_stale, not shed — one outcome, one counter.
  if (r.outcome == Outcome::kShed) registry_.shard(0).inc(CId::kQueriesShed);
  account_locked(e->req.tenant, r.outcome);
  e->promise.set_value(std::move(r));
}

void QueryService::account_locked(const std::string& tenant, Outcome outcome) {
  TenantStats& t = tenants_[tenant];
  obs::MetricsShard& adm = registry_.shard(0);
  switch (outcome) {
    case Outcome::kServed:
      t.served += 1;
      adm.inc(CId::kQueriesServed);
      break;
    case Outcome::kServedStale:
      t.served_stale += 1;
      adm.inc(CId::kQueriesServedStale);
      break;
    case Outcome::kCancelled:
      t.cancelled += 1;
      adm.inc(CId::kQueriesCancelled);
      break;
    case Outcome::kDeadlineExpired:
      t.deadline_expired += 1;
      adm.inc(CId::kQueriesDeadlineExpired);
      break;
    case Outcome::kShed:
      t.shed += 1;
      break;  // kQueriesShed counted at the shed site
    case Outcome::kFailed:
      t.failed += 1;
      adm.inc(CId::kQueriesFailed);
      break;
  }
}

void QueryService::cache_store_locked(
    const CacheKey& key, std::shared_ptr<const std::vector<Distance>> dist,
    std::uint64_t version) {
  auto it = stale_.find(key);
  if (it == stale_.end() && stale_.size() >= config_.stale_cache_entries) {
    stale_.erase(stale_order_.front());
    stale_order_.pop_front();
  }
  if (it == stale_.end()) stale_order_.push_back(key);
  stale_[key] = CachedAnswer{std::move(dist), version};
}

QueryResult QueryService::execute(Pending& q, int wid,
                                  std::unique_ptr<Solver>& solver,
                                  Xoshiro256& rng, bool& quarantine) {
  obs::MetricsShard& my = registry_.shard(wid + 1);
  QueryResult r;
  r.query_id = q.id;
  const auto start = Clock::now();
  r.queue_ms = ms_between(q.submitted, start);
  CancelToken& token = *q.token;

  for (int attempt = 0;; ++attempt) {
    r.attempts = attempt + 1;
    try {
      if (solver == nullptr) {
        // Rebuild after quarantine — this is the only construction on the
        // query path, and only ever after a previous attempt tore down.
        solver = build_solver();
        my.inc(CId::kSolverRebuilds);
      }
      if (config_.inject_failure) config_.inject_failure(attempt);
      solver->options().cancel = &token;
      SsspResult s = solver->solve(*q.graph, q.req.source);
      solver->options().cancel = nullptr;
      r.outcome = Outcome::kServed;
      r.dist = std::move(s.dist);
      r.graph_version = q.run_version;
      break;
    } catch (const SolveCancelledError& ex) {
      if (solver != nullptr) solver->options().cancel = nullptr;
      r.outcome = ex.reason() == CancelReason::kDeadline
                      ? Outcome::kDeadlineExpired
                      : Outcome::kCancelled;
      // A cancelled run unwound cooperatively, but its team just absorbed
      // an abnormal exit — quarantine and rebuild off this query's path.
      if (r.outcome == Outcome::kDeadlineExpired) quarantine = true;
      if (r.outcome == Outcome::kDeadlineExpired && q.req.allow_stale) {
        std::shared_ptr<const std::vector<Distance>> stale;
        {
          MutexLock lock(mu_);
          if (const CachedAnswer* hit = cache_find_locked(q)) {
            stale = hit->dist;
            r.graph_version = hit->version;
          }
        }
        if (stale != nullptr) {  // copied outside mu_, as in submit()
          r.outcome = Outcome::kServedStale;
          r.dist = *stale;
        }
      }
      break;
    } catch (const std::logic_error& ex) {
      // Permanent input/config error (InvalidSourceError, SolverBusyError,
      // ...): retrying cannot help.
      if (solver != nullptr) solver->options().cancel = nullptr;
      r.outcome = Outcome::kFailed;
      r.error = ex.what();
      break;
    } catch (const std::exception& ex) {
      // Transient failure (chaos-forced, injected): quarantine the Solver
      // immediately — its internal state is suspect — and retry on a fresh
      // one after a seeded, jittered backoff.
      solver.reset();
      if (attempt >= config_.max_retries || token.cancel_requested()) {
        r.outcome = Outcome::kFailed;
        r.error = ex.what();
        break;
      }
      my.inc(CId::kQueryRetries);
      const auto base =
          static_cast<std::uint64_t>(config_.retry_backoff.count());
      std::uint64_t backoff = base << attempt;
      if (base > 0) backoff += rng.next_below(base);  // jitter in [0, base)
      r.backoff_ns.push_back(backoff);
      if (backoff > 0)
        std::this_thread::sleep_for(std::chrono::nanoseconds(backoff));
    }
  }
  r.solve_ms = ms_between(start, Clock::now());
  return r;
}

void QueryService::worker_main(int wid) {
  std::unique_ptr<Solver> solver = build_solver();
  Xoshiro256 rng(hash_mix(config_.seed ^
                          (0x9E3779B97F4A7C15ULL *
                           static_cast<std::uint64_t>(wid + 1))));
  for (;;) {
    Entry e;
    std::shared_ptr<const std::vector<Distance>> cached;
    {
      MutexLock lock(mu_);
      // Explicit predicate loop (not the lambda overload): TSA analyzes a
      // lambda body with no knowledge of the held capability, so the
      // guarded reads live here, where mu_ is provably held. Pickups also
      // pause while an update() owns the exclusive gate — a run must never
      // observe a half-applied batch.
      while (!stopping_ && (queue_.empty() || update_active_))
        work_cv_.wait(lock);
      if (queue_.empty()) return;  // stopping_ and drained
      e = pop_next_locked();
      if (e->versioned != nullptr) {
        e->run_version = e->versioned->version();
        // Queued behind an update() that republished this source's answer
        // at the version we would run against: serve it, skip the solve.
        const CachedAnswer* hit =
            e->token->poll() ? nullptr
                             : fresh_find_locked(*e->versioned, e->req.source);
        if (hit != nullptr) {
          cached = hit->dist;
          account_cached_locked(e->req.tenant);
        }
      }
      if (cached == nullptr) running_[static_cast<std::size_t>(wid)] = e;
    }
    if (cached != nullptr) {
      QueryResult r;
      r.query_id = e->id;
      r.queue_ms = ms_between(e->submitted, Clock::now());
      r.outcome = Outcome::kServed;
      r.dist = *cached;
      r.graph_version = e->run_version;
      e->promise.set_value(std::move(r));
      continue;
    }

    QueryResult r;
    bool quarantine = false;
    std::shared_ptr<const std::vector<Distance>> to_cache;
    if (e->token->poll()) {
      // Fired while queued (deadline between watchdog ticks, or shutdown):
      // resolve without running.
      r.query_id = e->id;
      r.queue_ms = ms_between(e->submitted, Clock::now());
      r.outcome = e->token->reason() == CancelReason::kDeadline
                      ? Outcome::kDeadlineExpired
                      : Outcome::kCancelled;
    } else {
      r = execute(*e, wid, solver, rng, quarantine);
      // The cache's copy of the answer is made here, not under mu_.
      if (r.outcome == Outcome::kServed && config_.stale_cache_entries > 0)
        to_cache = std::make_shared<const std::vector<Distance>>(r.dist);
    }

    {
      MutexLock lock(mu_);
      running_[static_cast<std::size_t>(wid)] = nullptr;
      if (to_cache != nullptr)
        cache_store_locked(e->key, std::move(to_cache), e->run_version);
      account_locked(e->req.tenant, r.outcome);
      // An update() may be waiting for the running set to drain.
      if (update_active_ && !any_running_locked()) update_cv_.notify_all();
    }
    e->promise.set_value(std::move(r));

    // Quarantine teardown happens after the promise resolved, so the
    // rebuild cost is off this query's critical path (the *next* query on
    // this worker pays it, counted as kSolverRebuilds in execute()).
    if (quarantine) solver.reset();
  }
}

void QueryService::watchdog_main() {
  MutexLock lock(mu_);
  while (!stopping_) {
    watchdog_cv_.wait_for(lock, config_.watchdog_interval);
    if (stopping_) break;
    const auto now = Clock::now();
    // Overdue running queries: cancel their tokens; the run unwinds at its
    // next polling site and the worker maps the reason to an outcome.
    for (const Entry& e : running_) {
      if (e != nullptr && now >= e->deadline &&
          !e->token->cancel_requested()) {
        e->token->request_cancel(CancelReason::kDeadline);
        registry_.shard(0).inc(CId::kWatchdogCancels);
      }
    }
    // Overdue queued queries: expire them without ever running.
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (now >= (*it)->deadline) {
        Entry e = *it;
        it = queue_.erase(it);
        e->token->request_cancel(CancelReason::kDeadline);
        finish_unrun_locked(e, Outcome::kDeadlineExpired);
      } else {
        ++it;
      }
    }
  }
}

void QueryService::shutdown() {
  {
    MutexLock lock(mu_);
    if (stopping_) {
      // Already shut down (idempotent); fall through to the joins below,
      // which are no-ops on already-joined threads guarded by joinable().
    }
    stopping_ = true;
    // Resolve everything still queued and wave off everything running.
    for (const Entry& e : queue_) {
      e->token->request_cancel(CancelReason::kUser);
      finish_unrun_locked(e, Outcome::kCancelled);
    }
    queue_.clear();
    for (const Entry& e : running_) {
      if (e != nullptr) e->token->request_cancel(CancelReason::kUser);
    }
  }
  work_cv_.notify_all();
  watchdog_cv_.notify_all();
  update_cv_.notify_all();  // a blocked update() wakes and throws
  if (watchdog_.joinable()) watchdog_.join();
  for (std::thread& w : workers_)
    if (w.joinable()) w.join();
}

ServiceStats QueryService::stats() const {
  MutexLock lock(mu_);
  ServiceStats s;
  s.tenants = tenants_;
  for (const auto& [name, t] : s.tenants) {
    (void)name;
    s.totals.submitted += t.submitted;
    s.totals.served += t.served;
    s.totals.served_stale += t.served_stale;
    s.totals.cancelled += t.cancelled;
    s.totals.deadline_expired += t.deadline_expired;
    s.totals.shed += t.shed;
    s.totals.rejected += t.rejected;
    s.totals.failed += t.failed;
    s.totals.coalesced += t.coalesced;
  }
  const obs::MetricsSnapshot snap = registry_.snapshot();
  s.retries = snap.totals[static_cast<std::size_t>(CId::kQueryRetries)];
  s.solver_rebuilds =
      snap.totals[static_cast<std::size_t>(CId::kSolverRebuilds)];
  s.watchdog_cancels =
      snap.totals[static_cast<std::size_t>(CId::kWatchdogCancels)];
  s.queue_depth = queue_.size();
  for (const Entry& e : running_)
    if (e != nullptr) ++s.running;
  return s;
}

obs::MetricsSnapshot QueryService::metrics() const {
  MutexLock lock(mu_);
  return registry_.snapshot();
}

}  // namespace wasp::service
