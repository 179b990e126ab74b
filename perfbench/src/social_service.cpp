// social_service — open loop at one fixed offered rate. Seeded Poisson
// arrivals feed a QueryService of two single-thread Solvers on the
// TW-class directed RMAT (Δ = 1). Two tenants at different priorities;
// sources are Zipf-skewed over a fixed set, and some arrivals repeat the
// previous source right behind it, so same-source queries can coalesce.
//
// The fleet uses single-thread Solvers on purpose: a ThreadTeam pins its
// worker t to CPU t, so two multi-thread teams running at once would
// collide on CPUs 1..3. With one-thread Solvers the peak is the client
// and two solver workers, plus the service watchdog's short wake-ups.
//
// Each query is timed from its due time (not its send time) to the moment
// the client sees its future resolved; the client waits on the oldest
// outstanding future and sweeps the rest every kPoll.
//
// The offered load is about an eighth of the fleet's capacity, so few
// queries wait behind a whole solve. Those that do sit near the p99, which
// therefore jumps between runs of the same code.
#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "graph/suite.hpp"
#include "service/service.hpp"
#include "sssp/solver.hpp"
#include "support/errors.hpp"

namespace perfbench {
namespace {

namespace svc = wasp::service;

constexpr double kScale = 0.25;  // 16,384 vertices
constexpr int kSolvers = 2;
constexpr std::size_t kSources = 64;
constexpr double kZipfS = 1.0;
constexpr double kRate = 100.0;  // offered queries per second
constexpr double kRepeatShare = 0.15;  // arrivals that repeat the previous source
constexpr double kRepeatGapMs = 0.05;  // ... this soon after it
constexpr double kInteractiveShare = 0.4;
constexpr int kSetupRepeats = 9;
constexpr auto kBudget = std::chrono::seconds(10);
constexpr auto kPoll = std::chrono::microseconds(200);

wasp::SsspOptions solver_options() {
  wasp::SsspOptions o;
  o.algo = wasp::Algorithm::kWasp;
  o.threads = 1;
  o.delta = 1;
  return o;
}

svc::ServiceConfig service_config(std::uint64_t seed) {
  svc::ServiceConfig c;
  c.solver = solver_options();
  c.num_solvers = kSolvers;
  c.queue_capacity = 4096;
  c.default_budget = kBudget;
  c.watchdog_interval = std::chrono::milliseconds(50);
  c.seed = seed;
  return c;
}

struct Arrival {
  double due_ms = 0.0;
  std::size_t source = 0;  ///< index into the source set
  bool interactive = false;
};

std::vector<Arrival> make_arrivals(double seconds, std::uint64_t seed) {
  std::vector<double> cdf(kSources);
  double sum = 0.0;
  for (std::size_t i = 0; i < kSources; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
    cdf[i] = sum;
  }
  Rng rng(seed);
  std::vector<Arrival> out;
  double t = 0.0;
  for (;;) {
    Arrival a;
    if (!out.empty() && rng.unit() < kRepeatShare) {
      a.due_ms = t + kRepeatGapMs;
      a.source = out.back().source;
    } else {
      a.due_ms = t - std::log(1.0 - rng.unit()) * 1e3 / kRate;
      const double u = rng.unit() * sum;
      a.source = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      a.source = std::min(a.source, kSources - 1);
    }
    a.interactive = rng.unit() < kInteractiveShare;
    t = a.due_ms;
    if (t >= seconds * 1e3) break;
    out.push_back(a);
  }
  return out;
}

}  // namespace

void run_social_service(const Options& opt, Report& rep) {
  ThreadPlan plan;
  plan.teams = kSolvers;
  plan.concurrent_teams = kSolvers;
  plan.threads_per_team = 1;
  plan.fleet = kSolvers;
  plan.watchdogs = 1;
  check_thread_plan(plan);
  rep.note_plan(plan);

  Tracer tracer;
  tracer.enable(opt.trace);

  wasp::suite::Workload w;
  std::unique_ptr<svc::QueryService> service;
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    service.reset();
    w = {};
    const Span setup(tracer, "setup");
    const auto t0 = Clock::now();
    {
      const Span s(tracer, "graph.generate", setup.id());
      w = wasp::suite::make(wasp::suite::GraphClass::kTwitter, kScale,
                            opt.seed);
    }
    generate_s.push_back(seconds_since(t0));
    {
      const Span s(tracer, "service.construct", setup.id());
      service = std::make_unique<svc::QueryService>(service_config(opt.seed));
    }
    {
      // One warm-up query per solver, submitted together.
      const Span s(tracer, "service.wait", setup.id());
      std::vector<std::shared_future<svc::QueryResult>> warm;
      for (int k = 0; k < kSolvers; ++k) {
        const auto v = static_cast<wasp::VertexId>(
            (w.source + static_cast<wasp::VertexId>(k)) % w.graph.num_vertices());
        warm.push_back(service->submit(w.graph, {.source = v, .tenant = "warmup"}));
      }
      for (auto& f : warm) (void)f.get();
    }
    setup_s.push_back(seconds_since(t0));
  }
  const wasp::Graph& g = w.graph;

  const std::vector<wasp::VertexId> sources =
      pick_sources(g, kSources, opt.seed ^ 0x50C1ULL);
  std::vector<std::vector<wasp::Distance>> refs;
  std::vector<double> dijkstra_ms;
  for (const wasp::VertexId s : sources) {
    double ms = 0.0;
    refs.push_back(reference(g, s, &ms));
    dijkstra_ms.push_back(ms);
  }
  const std::vector<Arrival> arrivals =
      make_arrivals(opt.seconds, opt.seed ^ 0xA7712ULL);
  Fingerprint fp;
  fp.graph(g);
  for (const wasp::VertexId s : sources) fp.value(s);
  for (const Arrival& a : arrivals) {
    fp.value(a.due_ms);
    fp.value(a.source);
    fp.value(a.interactive);
  }
  rep.note_text("input_hash", fp.hex());
  rep.note_count("vertices", g.num_vertices());
  rep.note_count("arcs", g.num_edges());
  rep.note_count("sources", sources.size());
  rep.note_count("queries", arrivals.size());

  const wasp::obs::MetricsSnapshot before = service->metrics();
  pin_client_to_cpu0();  // the fleet's threads already exist, unpinned

  // Per-attempt records, filled as the client observes them.
  struct Record {
    Clock::time_point due;
    Clock::time_point sent;
    Clock::time_point submitted;  ///< submit() returned
    std::shared_future<svc::QueryResult> fut;
  };
  std::vector<Record> rec(arrivals.size());
  std::vector<double> latency_ms[2];  // [traced]
  std::vector<double> batch_ms;
  std::vector<double> lag_ms;
  std::vector<double> submit_us;
  std::vector<double> queue_ms;
  std::vector<double> solve_ms;
  std::uint64_t rejected = 0;

  const auto resolve = [&](std::size_t i, Clock::time_point seen) {
    const Arrival& a = arrivals[i];
    const svc::QueryResult& r = rec[i].fut.get();
    const bool traced = opt.trace && (i % 2 == 1);
    const double ms = ms_between(rec[i].due, seen);
    queue_ms.push_back(r.queue_ms);
    solve_ms.push_back(r.solve_ms);
    if (r.outcome != svc::Outcome::kServed) {
      rep.fail(std::string("query outcome ") + svc::to_string(r.outcome),
               false);
      return;
    }
    if (r.dist != refs[a.source]) {
      rep.fail("query distances differ from Dijkstra", true);
      return;
    }
    latency_ms[traced ? 1 : 0].push_back(ms);
    if (!a.interactive) batch_ms.push_back(ms);
    if (traced) {
      const int op = tracer.add("client.op", Tracer::kNoParent, i + 1,
                                rec[i].due, seen);
      tracer.add("service.submit", op, i + 1, rec[i].sent, rec[i].submitted);
      tracer.add("service.wait", op, i + 1, rec[i].submitted, seen);
    }
  };

  std::deque<std::size_t> outstanding;
  std::vector<std::pair<std::size_t, Clock::time_point>> ready;
  const Clock::time_point origin = Clock::now() + std::chrono::milliseconds(5);
  const auto due_of = [&](std::size_t i) {
    return origin + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            arrivals[i].due_ms));
  };
  std::size_t next = 0;
  while (next < arrivals.size() || !outstanding.empty()) {
    // Send everything that is due.
    for (Clock::time_point now = Clock::now();
         next < arrivals.size() && due_of(next) <= now; now = Clock::now()) {
      const Arrival& a = arrivals[next];
      Record& r = rec[next];
      r.due = due_of(next);
      r.sent = now;
      lag_ms.push_back(ms_between(r.due, now));
      rep.attempted += 1;
      try {
        r.fut = service->submit(
            g, {.source = sources[a.source],
                .priority = a.interactive ? 2 : 0,
                .tenant = a.interactive ? "interactive" : "batch"});
        r.submitted = Clock::now();
        submit_us.push_back(ms_between(r.sent, r.submitted) * 1e3);
        outstanding.push_back(next);
      } catch (const wasp::ServiceOverloadedError& e) {
        rejected += 1;
        rep.fail(std::string("rejected: ") + e.what(), false);
      } catch (const std::exception& e) {
        rep.fail(std::string("submit threw: ") + e.what(), true);
      }
      ++next;
    }
    // Stamp every resolved future first, then check them.
    ready.clear();
    for (auto it = outstanding.begin(); it != outstanding.end();) {
      if (rec[*it].fut.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        ready.emplace_back(*it, Clock::now());
        it = outstanding.erase(it);
      } else {
        ++it;
      }
    }
    for (const auto& [i, seen] : ready) {
      resolve(i, seen);
      rec[i].fut = {};  // drop the distances once checked
    }
    // Sleep until the next arrival, waking early when the oldest resolves.
    const Clock::time_point wake = next < arrivals.size()
                                       ? due_of(next)
                                       : Clock::time_point::max();
    if (!outstanding.empty()) {
      (void)rec[outstanding.front()].fut.wait_until(
          std::min(wake, Clock::now() + kPoll));
    } else if (next < arrivals.size()) {
      std::this_thread::sleep_until(wake);
    }
  }

  // Outcome accounting: every attempt was accepted (as a new entry or a
  // coalesced rider) or rejected, and every entry ended in one outcome.
  const wasp::obs::MetricsSnapshot after = service->metrics();
  const auto delta = [&](const char* name) {
    return counter(after, name) - counter(before, name);
  };
  const std::uint64_t submitted = delta("queries_submitted");
  const std::uint64_t coalesced = delta("queries_coalesced");
  const std::uint64_t outcomes =
      delta("queries_served") + delta("queries_served_stale") +
      delta("queries_cancelled") + delta("queries_deadline_expired") +
      delta("queries_shed") + delta("queries_failed");
  if (submitted + coalesced + delta("queries_rejected") != rep.attempted ||
      delta("queries_rejected") != rejected || outcomes != submitted) {
    rep.correct = false;
    std::fprintf(stderr,
                 "perfbench: outcome sums broken: attempts %llu, submitted "
                 "%llu, coalesced %llu, rejected %llu, outcomes %llu\n",
                 static_cast<unsigned long long>(rep.attempted),
                 static_cast<unsigned long long>(submitted),
                 static_cast<unsigned long long>(coalesced),
                 static_cast<unsigned long long>(delta("queries_rejected")),
                 static_cast<unsigned long long>(outcomes));
  }
  service->shutdown();

  std::vector<double> all = latency_ms[0];
  all.insert(all.end(), latency_ms[1].begin(), latency_ms[1].end());
  if (!opt.trace) {
    rep.metric("setup_s", median(setup_s), "s");
    rep.metric("p50_ms", windowed_quantile(all, 0.5), "ms");
    rep.metric("alt_p50_ms", windowed_quantile(batch_ms, 0.5), "ms");
    return;
  }

  // Engine work on this graph, from a standalone Solver configured like
  // the fleet's (the service exposes no per-query engine counters).
  double relaxations = 0.0;
  double updates = 0.0;
  {
    wasp::Solver probe(solver_options());
    for (const wasp::VertexId s : sources) {
      const wasp::SsspResult r = probe.solve(g, s);
      relaxations += static_cast<double>(counter(r.metrics, "relaxations"));
      updates += static_cast<double>(counter(r.metrics, "updates"));
    }
  }
  const double attempts = static_cast<double>(rep.attempted);
  rep.metric("graph.generate_s", median(generate_s), "s");
  rep.metric("graph.arcs", static_cast<double>(g.num_edges()), "count");
  rep.metric("engine.social.relax_per_arc",
             relaxations / static_cast<double>(sources.size()) /
                 static_cast<double>(g.num_edges()),
             "ratio");
  rep.metric("engine.social.update_ratio",
             relaxations > 0 ? updates / relaxations : 0.0, "ratio");
  rep.metric("engine.dijkstra_ms", median(dijkstra_ms), "ms");
  rep.metric("service.submit_us_p50", median(submit_us), "us");
  rep.metric("service.solve_ms_p50", median(solve_ms), "ms");
  rep.metric("service.queue_ms_p50", median(queue_ms), "ms");
  rep.metric("service.queue_ms_p99", quantile(queue_ms, 0.99), "ms");
  rep.metric("service.coalesced_share", static_cast<double>(coalesced) / attempts, "ratio");
  rep.metric("service.stale_share",
             static_cast<double>(delta("queries_served_stale")) / attempts, "ratio");
  rep.metric("service.shed", static_cast<double>(delta("queries_shed")), "count");
  rep.metric("service.expired",
             static_cast<double>(delta("queries_deadline_expired")), "count");
  rep.metric("service.rejected", static_cast<double>(delta("queries_rejected")), "count");
  rep.metric("client.p90_ms", quantile(all, 0.9), "ms");
  rep.metric("client.alt_p90_ms", quantile(batch_ms, 0.9), "ms");
  rep.metric("client.query_p99_ms", quantile(all, 0.99), "ms");
  rep.metric("client.lag_p99_ms", quantile(lag_ms, 0.99), "ms");
  rep.metric("client.trace_overhead",
             median(latency_ms[1]) - median(latency_ms[0]), "ms");
  if (!opt.trace_out.empty()) tracer.write_chrome(opt.trace_out);
}

}  // namespace perfbench
