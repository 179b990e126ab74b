// live_traffic — closed loop of traffic ticks alternating between two
// VersionedGraphs: the USA-class grid (small repair cones) and the
// KV-class chain forest (large repair cones). Each graph has its own
// QueryService (one Solver of 4 threads) and one hot source, at the
// graph's approximate centre. A tick is
// update(vg, batch) followed by a submit of the hot source at
// min_graph_version = the new version, waited for.
//
// Inside update() the service's single repairer brings its cached answer
// for the hot source up to the new version incrementally, so the tick
// times the update gate, delta apply + compaction, the repair, and the
// re-query. Only one team runs at a time: the update runs the repairer on
// the client thread while the fleet is gated, and the client blocks while
// the fleet answers.
//
// Batches are generated from the base graphs alone (the generator tracks
// which edges it closed), so the whole stream is known, and fingerprinted,
// before the first tick.
#include <algorithm>
#include <deque>
#include <future>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "graph/suite.hpp"
#include "service/service.hpp"

namespace perfbench {
namespace {

namespace svc = wasp::service;

constexpr double kRoadScale = 1.0;  // 320 x 320 grid, 102,400 vertices
constexpr double kKmerScale = 1.0;  // 64 chains x 2048
constexpr int kThreads = 4;
constexpr wasp::Weight kDelta = 1024;  // the bench suite's low-degree Δ
constexpr int kJamsPerBatch = 16;
constexpr int kClearingsPerBatch = 16;
constexpr double kTicksPerSecond = 45.0;  // nominal, both graphs together
constexpr int kSetupRepeats = 9;

svc::ServiceConfig service_config(std::uint64_t seed) {
  svc::ServiceConfig c;
  c.solver.algo = wasp::Algorithm::kWasp;
  c.solver.threads = kThreads;
  c.solver.delta = kDelta;
  c.num_solvers = 1;
  c.queue_capacity = 16;
  c.default_budget = std::chrono::seconds(10);
  c.watchdog_interval = std::chrono::milliseconds(50);
  c.seed = seed;
  return c;
}

/// Seeded traffic batches over one base graph: weight jams (x4, capped at
/// 8x the base maximum), clearings back to the base weight, one closure
/// (erase) per batch and one reopening (insert at base weight) of the
/// oldest closure once two are outstanding.
class TrafficGen {
 public:
  TrafficGen(const wasp::Graph& base, std::uint64_t seed)
      : g_(base), rng_(seed), max_w_(std::max<wasp::Weight>(1, base.max_weight())) {}

  wasp::GraphDelta next() {
    wasp::GraphDelta d;
    std::set<Key> touched;
    for (int i = 0; i < kJamsPerBatch + kClearingsPerBatch; ++i) {
      const Arc a = sample(touched);
      if (i < kJamsPerBatch) {
        const auto jam = static_cast<wasp::Weight>(std::min<std::uint64_t>(
            std::uint64_t{a.w} * 4, std::uint64_t{max_w_} * 8));
        d.set_weight(a.u, a.v, std::max<wasp::Weight>(1, jam));
      } else {
        d.set_weight(a.u, a.v, a.w);
      }
    }
    const Arc close = sample(touched);
    d.erase(close.u, close.v);
    closed_.insert(key(close));
    closed_order_.push_back(close);
    if (closed_order_.size() > 2) {
      const Arc open = closed_order_.front();
      closed_order_.pop_front();
      closed_.erase(key(open));
      d.insert(open.u, open.v, open.w);
    }
    return d;
  }

 private:
  struct Arc {
    wasp::VertexId u, v;
    wasp::Weight w;
  };
  using Key = std::pair<wasp::VertexId, wasp::VertexId>;

  [[nodiscard]] Key key(const Arc& a) const {
    if (g_.is_undirected() && a.v < a.u) return {a.v, a.u};
    return {a.u, a.v};
  }

  /// An open, not-yet-touched-this-batch arc of the base graph.
  Arc sample(std::set<Key>& touched) {
    for (;;) {
      const auto u = static_cast<wasp::VertexId>(rng_.below(g_.num_vertices()));
      const auto adj = g_.out_neighbors(u);
      if (adj.empty()) continue;
      const wasp::WEdge e = adj[rng_.below(adj.size())];
      const Arc a{u, e.dst, e.w};
      if (a.u == a.v || closed_.count(key(a)) != 0) continue;
      if (!touched.insert(key(a)).second) continue;
      return a;
    }
  }

  const wasp::Graph& g_;
  Rng rng_;
  wasp::Weight max_w_;
  std::set<Key> closed_;
  std::deque<Arc> closed_order_;
};

/// One graph of the workload with its service and tick records.
struct Lane {
  Lane(const char* n, wasp::suite::GraphClass c, double s)
      : name(n), cls(c), scale(s) {}

  const char* name;
  wasp::suite::GraphClass cls;
  double scale;
  std::unique_ptr<wasp::VersionedGraph> vg;
  std::unique_ptr<svc::QueryService> service;
  wasp::VertexId hot = 0;
  std::vector<wasp::GraphDelta> batches;  // [0] is the warm-up batch
  std::vector<double> tick_ms[2];         // [traced]
  std::vector<double> update_ms;
  std::vector<double> requery_ms;
  std::vector<double> dijkstra_ms;
  std::uint64_t ticks = 0;
  std::uint64_t incremental = 0;
  std::uint64_t compactions = 0;
  std::uint64_t cone = 0;
  std::uint64_t seeds = 0;
};

struct TickResult {
  std::uint64_t version = 0;
  svc::QueryResult answer;
  double update_ms = 0.0;
  double requery_ms = 0.0;
};

/// The timed part of a tick: update, then the hot query at the new
/// version, waited for. The op span covers exactly this.
TickResult timed_tick(Lane& lane, const wasp::GraphDelta& batch,
                      Tracer& tracer, std::uint64_t op) {
  const Span span(tracer, "client.op", Tracer::kNoParent, op);
  TickResult t;
  const auto t0 = Clock::now();
  {
    const Span s(tracer, "service.update", span.id(), op);
    t.version = lane.service->update(*lane.vg, batch);
  }
  const auto t1 = Clock::now();
  std::shared_future<svc::QueryResult> fut;
  {
    const Span s(tracer, "service.submit", span.id(), op);
    fut = lane.service->submit(
        *lane.vg, {.source = lane.hot, .min_graph_version = t.version});
  }
  {
    const Span s(tracer, "service.wait", span.id(), op);
    t.answer = fut.get();
  }
  const auto t2 = Clock::now();
  t.update_ms = ms_between(t0, t1);
  t.requery_ms = ms_between(t1, t2);
  return t;
}

/// A measured tick: the timed part, then the service counters it moved and
/// the exactness check at the new version.
void measured_tick(Lane& lane, const wasp::GraphDelta& batch, Tracer& tracer,
                   std::uint64_t op, Report& rep, std::vector<double>& queue_ms,
                   std::vector<double>& solve_ms) {
  rep.attempted += 1;
  const wasp::obs::MetricsSnapshot before = lane.service->metrics();
  TickResult t;
  try {
    t = timed_tick(lane, batch, tracer, op);
  } catch (const std::exception& e) {
    rep.fail(std::string(lane.name) + " tick threw: " + e.what(), true);
    return;
  }
  lane.ticks += 1;
  const wasp::obs::MetricsSnapshot after = lane.service->metrics();
  const auto delta = [&](const char* name) {
    return counter(after, name) - counter(before, name);
  };
  lane.compactions += delta("graph_compactions");
  lane.cone += delta("repair_cone_vertices");
  lane.seeds += delta("repair_seed_vertices");
  if (delta("repair_batches") > 0) lane.incremental += 1;
  queue_ms.push_back(t.answer.queue_ms);
  solve_ms.push_back(t.answer.solve_ms);

  if (t.answer.outcome != svc::Outcome::kServed) {
    rep.fail(std::string(lane.name) + " outcome " +
                 svc::to_string(t.answer.outcome), false);
    return;
  }
  double ref_ms = 0.0;
  const std::vector<wasp::Distance> ref =
      reference(lane.vg->flat(), lane.hot, &ref_ms);
  lane.dijkstra_ms.push_back(ref_ms);
  if (t.answer.graph_version != t.version || t.answer.dist != ref) {
    rep.fail(std::string(lane.name) + " answer differs from Dijkstra at "
             "version " + std::to_string(t.version), true);
    return;
  }
  lane.tick_ms[tracer.on() ? 1 : 0].push_back(t.update_ms + t.requery_ms);
  lane.update_ms.push_back(t.update_ms);
  lane.requery_ms.push_back(t.requery_ms);
}

}  // namespace

void run_live_traffic(const Options& opt, Report& rep) {
  ThreadPlan plan;
  plan.teams = 4;  // per service: the fleet's Solver and the repairer
  plan.concurrent_teams = 1;
  plan.threads_per_team = kThreads;
  plan.fleet = 2;
  plan.client_in_team = true;  // blocked, or worker 0 of the repairer's team
  plan.watchdogs = 2;
  check_thread_plan(plan);
  rep.note_plan(plan);

  // Before the services exist, so their threads inherit CPU 0 too: worker 0
  // of every team (the fleet's worker, or the client in update()) runs on
  // CPU 0 and the team re-pins workers 1..3 to CPUs 1..3.
  pin_client_to_cpu0();
  Tracer tracer;
  tracer.enable(opt.trace);

  const std::uint64_t ticks = closed_loop_ops(opt.seconds, kTicksPerSecond);
  Lane lanes[2] = {{"road", wasp::suite::GraphClass::kRoadUsa, kRoadScale},
                   {"kmer", wasp::suite::GraphClass::kKmer, kKmerScale}};
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  Fingerprint fp;
  std::uint64_t arcs = 0;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const Span setup(tracer, "setup");
    const auto t0 = Clock::now();
    double gen = 0.0;
    arcs = 0;
    for (std::size_t k = 0; k < 2; ++k) {
      Lane& lane = lanes[k];
      lane.service.reset();
      lane.vg.reset();
      const auto g0 = Clock::now();
      wasp::suite::Workload w;
      {
        const Span s(tracer, "graph.generate", setup.id());
        w = wasp::suite::make(lane.cls, lane.scale, opt.seed);
      }
      gen += seconds_since(g0);
      arcs += w.graph.num_edges();
      if (r == 0) {
        // The chain forest is a tree, so a closure cuts off everything
        // beyond it: a hot source at the centre keeps the cone sizes, and
        // the tick times, alike across seeds. The batch stream depends only
        // on the base graph and the seed.
        lane.hot = central_vertex(w.graph, w.source);
        fp.graph(w.graph);
        fp.value(lane.hot);
        TrafficGen traffic(w.graph, opt.seed ^ (0x7AFF1CULL + k));
        for (std::uint64_t b = 0; b < 1 + (ticks + 1) / 2; ++b) {
          lane.batches.push_back(traffic.next());
          fp.delta(lane.batches.back());
        }
      }
      lane.vg = std::make_unique<wasp::VersionedGraph>(std::move(w.graph));
      {
        const Span s(tracer, "service.construct", setup.id());
        lane.service = std::make_unique<svc::QueryService>(service_config(opt.seed));
      }
    }
    // Warm-up: one query caches the hot answer, one tick builds the
    // repairer and binds it to (graph, hot source).
    for (Lane& lane : lanes) {
      const Span s(tracer, "service.wait", setup.id());
      const svc::QueryResult q =
          lane.service->solve(*lane.vg, {.source = lane.hot});
      if (q.outcome != svc::Outcome::kServed ||
          timed_tick(lane, lane.batches[0], tracer, 0).answer.outcome !=
              svc::Outcome::kServed)
        throw std::runtime_error(std::string(lane.name) + " warm-up failed");
    }
    generate_s.push_back(gen);
    setup_s.push_back(seconds_since(t0));
  }
  rep.note_text("input_hash", fp.hex());
  rep.note_count("road_vertices", lanes[0].vg->num_vertices());
  rep.note_count("kmer_vertices", lanes[1].vg->num_vertices());
  rep.note_count("arcs", arcs);
  rep.note_count("ticks", ticks);

  std::vector<double> queue_ms;
  std::vector<double> solve_ms;
  const wasp::obs::MetricsSnapshot before[2] = {lanes[0].service->metrics(),
                                                lanes[1].service->metrics()};
  for (std::uint64_t i = 0; i < ticks; ++i) {
    Lane& lane = lanes[i % 2];
    // Traced runs alternate traced and untraced ticks of each graph.
    tracer.enable(opt.trace && (i / 2) % 2 == 1);
    measured_tick(lane, lane.batches[1 + i / 2], tracer, i + 1, rep, queue_ms,
                  solve_ms);
  }
  // Outcome counters over the measured ticks, both services.
  std::map<std::string, std::uint64_t> outcomes;
  for (int k = 0; k < 2; ++k) {
    const wasp::obs::MetricsSnapshot after = lanes[k].service->metrics();
    for (const char* name :
         {"queries_coalesced", "queries_served_stale", "queries_shed",
          "queries_deadline_expired", "queries_rejected"})
      outcomes[name] += counter(after, name) - counter(before[k], name);
    lanes[k].service->shutdown();
  }

  const auto all_ticks = [](const Lane& lane) {
    std::vector<double> v = lane.tick_ms[0];
    v.insert(v.end(), lane.tick_ms[1].begin(), lane.tick_ms[1].end());
    return v;
  };
  if (!opt.trace) {
    rep.metric("setup_s", median(setup_s), "s");
    rep.metric("p50_ms", windowed_quantile(all_ticks(lanes[0]), 0.5), "ms");
    rep.metric("alt_p50_ms", windowed_quantile(all_ticks(lanes[1]), 0.5), "ms");
    return;
  }

  rep.metric("graph.generate_s", median(generate_s), "s");
  rep.metric("graph.arcs", static_cast<double>(arcs), "count");
  for (const Lane& lane : lanes) {
    const std::string p = lane.name;
    const double n = std::max<double>(1.0, static_cast<double>(lane.ticks));
    rep.metric("graph." + p + ".compactions_per_tick", static_cast<double>(lane.compactions) / n, "count");
    rep.metric("repair." + p + ".cone_per_tick", static_cast<double>(lane.cone) / n, "count");
    rep.metric("repair." + p + ".seeds_per_tick", static_cast<double>(lane.seeds) / n, "count");
    rep.metric("repair." + p + ".incremental_share", static_cast<double>(lane.incremental) / n, "ratio");
    rep.metric("service." + p + ".update_ms_p50", median(lane.update_ms), "ms");
    rep.metric("service." + p + ".requery_ms_p50", median(lane.requery_ms), "ms");
  }
  // No service.submit_us_p50 here: the fleet's worker shares CPU 0 with
  // the client and preempts it inside submit(), which only this workload's
  // pinning causes.
  rep.metric("service.solve_ms_p50", median(solve_ms), "ms");
  rep.metric("service.queue_ms_p50", median(queue_ms), "ms");
  rep.metric("service.queue_ms_p99", quantile(queue_ms, 0.99), "ms");
  const double attempts = std::max<double>(1.0, static_cast<double>(rep.attempted));
  rep.metric("service.coalesced_share", static_cast<double>(outcomes["queries_coalesced"]) / attempts, "ratio");
  rep.metric("service.stale_share", static_cast<double>(outcomes["queries_served_stale"]) / attempts, "ratio");
  rep.metric("service.shed", static_cast<double>(outcomes["queries_shed"]), "count");
  rep.metric("service.expired", static_cast<double>(outcomes["queries_deadline_expired"]), "count");
  rep.metric("service.rejected", static_cast<double>(outcomes["queries_rejected"]), "count");
  rep.metric("engine.dijkstra_ms", median(lanes[0].dijkstra_ms), "ms");
  rep.metric("client.p90_ms", quantile(all_ticks(lanes[0]), 0.9), "ms");
  rep.metric("client.alt_p90_ms", quantile(all_ticks(lanes[1]), 0.9), "ms");
  rep.metric("client.trace_overhead",
             median(lanes[0].tick_ms[1]) - median(lanes[0].tick_ms[0]), "ms");
  if (!opt.trace_out.empty()) tracer.write_chrome(opt.trace_out);
}

}  // namespace perfbench
