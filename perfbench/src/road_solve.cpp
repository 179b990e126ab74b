// road_solve — closed loop, one client. Each source of a seeded cycle over
// the USA-class grid is answered twice: by a flat Wasp Solver (4 threads,
// detected topology) and then by a 2-fragment partitioned Solver (4
// threads, synthetic 2-node topology). The Solvers never run at once: the
// client thread is worker 0 of whichever team is solving, so at most four
// threads are runnable.
#include <memory>

#include "common.hpp"
#include "graph/suite.hpp"
#include "sssp/solver.hpp"

namespace perfbench {
namespace {

constexpr double kScale = 4.0;  // 640 x 640 grid, 409,600 vertices
constexpr int kThreads = 4;
constexpr int kFragments = 2;
constexpr wasp::Weight kDelta = 64;  // fastest of {1, 64, 1024} on this grid
constexpr std::size_t kSources = 16;
constexpr double kVisitsPerSecond = 20.0;  // nominal, flat + partitioned
constexpr int kSetupRepeats = 9;

wasp::SsspOptions flat_options() {
  wasp::SsspOptions o;
  o.algo = wasp::Algorithm::kWasp;
  o.threads = kThreads;
  o.delta = kDelta;
  return o;
}

/// Engine counters summed over the measured solves of one Solver.
struct EngineTotals {
  std::uint64_t solves = 0;
  double thread_ns = 0.0;  ///< threads x engine wall, in ns
  std::map<std::string, std::uint64_t, std::less<>> c;
  std::vector<double> overhead_ms;  ///< wall around solve() minus engine time

  void add(const wasp::obs::MetricsSnapshot& m, double wall_ms) {
    solves += 1;
    overhead_ms.push_back(wall_ms - m.seconds * 1e3);
    thread_ns += static_cast<double>(m.threads) * m.seconds * 1e9;
    for (const char* name :
         {"relaxations", "updates", "stale_skips", "steals", "steal_attempts",
          "termination_scans", "idle_ns", "steal_ns", "epoch_sweeps",
          "remote_relaxations", "remote_batches", "local_steals",
          "remote_steals"})
      c[name] += counter(m, name);
  }
  [[nodiscard]] double get(const char* name) const {
    const auto it = c.find(name);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  }
  [[nodiscard]] double ratio(const char* num, const char* den) const {
    const double d = get(den);
    return d > 0 ? get(num) / d : 0.0;
  }
  [[nodiscard]] double per_solve(const char* name) const {
    return solves > 0 ? get(name) / static_cast<double>(solves) : 0.0;
  }
  [[nodiscard]] double time_share(const char* ns) const {
    return thread_ns > 0 ? get(ns) / thread_ns : 0.0;
  }
};

}  // namespace

void run_road_solve(const Options& opt, Report& rep) {
  ThreadPlan plan;
  plan.teams = 2;
  plan.concurrent_teams = 1;
  plan.threads_per_team = kThreads;
  plan.client_in_team = true;  // worker 0 of whichever team is solving
  check_thread_plan(plan);
  rep.note_plan(plan);

  pin_client_to_cpu0();
  Tracer tracer;
  tracer.enable(opt.trace);

  // Set-up, repeated: generation + both Solvers + one warm-up solve each.
  wasp::suite::Workload w;
  std::unique_ptr<wasp::Solver> flat;
  std::unique_ptr<wasp::Solver> part;
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    flat.reset();
    part.reset();
    w = {};
    const Span setup(tracer, "setup");
    const auto t0 = Clock::now();
    {
      const Span s(tracer, "graph.generate", setup.id());
      w = wasp::suite::make(wasp::suite::GraphClass::kRoadUsa, kScale,
                            opt.seed);
    }
    generate_s.push_back(seconds_since(t0));
    {
      const Span s(tracer, "solver.construct", setup.id());
      flat = std::make_unique<wasp::Solver>(flat_options());
      part = std::make_unique<wasp::Solver>(
          partitioned_options(flat_options(), kFragments));
    }
    {
      const Span s(tracer, "solver.solve", setup.id());
      (void)flat->solve(w.graph, w.source);
      (void)part->solve(w.graph, w.source);
    }
    setup_s.push_back(seconds_since(t0));
  }
  const wasp::Graph& g = w.graph;

  // Inputs and their references (outside every timed region).
  const std::vector<wasp::VertexId> sources =
      pick_sources(g, kSources, opt.seed ^ 0x50ADULL);
  std::vector<std::vector<wasp::Distance>> refs;
  std::vector<double> dijkstra_ms;
  for (const wasp::VertexId s : sources) {
    double ms = 0.0;
    refs.push_back(reference(g, s, &ms));
    dijkstra_ms.push_back(ms);
  }
  const std::uint64_t visits = closed_loop_ops(opt.seconds, kVisitsPerSecond);
  Fingerprint fp;
  fp.graph(g);
  for (const wasp::VertexId s : sources) fp.value(s);
  fp.value(visits);
  rep.note_text("input_hash", fp.hex());
  rep.note_count("vertices", g.num_vertices());
  rep.note_count("arcs", g.num_edges());
  rep.note_count("sources", sources.size());
  rep.note_count("visits", visits);

  // Measured closed loop.
  std::vector<double> flat_ms[2];  // [traced]
  std::vector<double> part_ms;
  EngineTotals flat_tot;
  EngineTotals part_tot;
  const auto solve_checked = [&](wasp::Solver& solver, std::size_t k,
                                 const char* span, int parent,
                                 std::uint64_t op, const char* what,
                                 EngineTotals& tot) -> double {
    rep.attempted += 1;
    try {
      wasp::SsspResult r;
      double ms = 0.0;
      {
        const Span s(tracer, span, parent, op);
        const auto t0 = Clock::now();
        r = solver.solve(g, sources[k]);
        ms = ms_between(t0, Clock::now());
      }
      if (r.dist != refs[k]) {
        rep.fail(std::string(what) + " distances differ from Dijkstra", true);
        return -1.0;
      }
      tot.add(r.metrics, ms);
      return ms;
    } catch (const std::exception& e) {
      rep.fail(std::string(what) + " threw: " + e.what(), true);
      return -1.0;
    }
  };
  for (std::uint64_t i = 0; i < visits; ++i) {
    // Traced runs alternate traced and untraced visits, so the difference
    // of their medians is the tracing overhead.
    const bool traced = opt.trace && (i % 2 == 1);
    tracer.enable(traced);
    const std::size_t k = i % sources.size();
    // The op's self time is the client's own work: checking both answers.
    const Span op(tracer, "client.op", Tracer::kNoParent, i + 1);
    const double f = solve_checked(*flat, k, "solver.solve.flat", op.id(), i + 1,
                                   "flat", flat_tot);
    if (f >= 0) flat_ms[traced ? 1 : 0].push_back(f);
    const double p = solve_checked(*part, k, "solver.solve.part", op.id(), i + 1,
                                   "partitioned", part_tot);
    if (p >= 0) part_ms.push_back(p);
  }

  std::vector<double> all_flat = flat_ms[0];
  all_flat.insert(all_flat.end(), flat_ms[1].begin(), flat_ms[1].end());
  const double flat_p50 = median(all_flat);
  const double dijkstra = median(dijkstra_ms);
  if (!opt.trace) {
    rep.metric("setup_s", median(setup_s), "s");
    rep.metric("p50_ms", windowed_quantile(all_flat, 0.5), "ms");
    rep.metric("alt_p50_ms", windowed_quantile(part_ms, 0.5), "ms");
    return;
  }

  const double arcs = static_cast<double>(g.num_edges());
  const double n = static_cast<double>(g.num_vertices());
  rep.metric("graph.generate_s", median(generate_s), "s");
  rep.metric("graph.arcs", arcs, "count");
  rep.metric("engine.flat.relax_per_arc", flat_tot.per_solve("relaxations") / arcs, "ratio");
  rep.metric("engine.flat.update_ratio", flat_tot.ratio("updates", "relaxations"), "ratio");
  rep.metric("engine.flat.stale_skips_per_vertex", flat_tot.per_solve("stale_skips") / n, "ratio");
  rep.metric("engine.flat.steal_success", flat_tot.ratio("steals", "steal_attempts"), "ratio");
  rep.metric("engine.flat.steals_per_solve", flat_tot.per_solve("steals"), "count");
  rep.metric("engine.flat.termination_scans_per_solve", flat_tot.per_solve("termination_scans"), "count");
  rep.metric("engine.flat.idle_share", flat_tot.time_share("idle_ns"), "ratio");
  rep.metric("engine.flat.steal_share", flat_tot.time_share("steal_ns"), "ratio");
  rep.metric("engine.flat.epoch_sweeps", flat_tot.get("epoch_sweeps"), "count");
  rep.metric("solver.overhead_ms", median(flat_tot.overhead_ms), "ms");
  rep.metric("engine.part.relax_per_arc", part_tot.per_solve("relaxations") / arcs, "ratio");
  rep.metric("engine.part.remote_share", part_tot.ratio("remote_relaxations", "relaxations"), "ratio");
  rep.metric("engine.part.records_per_batch", part_tot.ratio("remote_relaxations", "remote_batches"), "count");
  rep.metric("engine.part.idle_share", part_tot.time_share("idle_ns"), "ratio");
  const double steals = part_tot.get("local_steals") + part_tot.get("remote_steals");
  rep.metric("engine.part.local_steal_share",
             steals > 0 ? part_tot.get("local_steals") / steals : 0.0, "ratio");
  rep.metric("engine.dijkstra_ms", dijkstra, "ms");
  rep.metric("engine.flat.speedup_vs_dijkstra", flat_p50 > 0 ? dijkstra / flat_p50 : 0.0, "ratio");
  rep.metric("client.p90_ms", quantile(all_flat, 0.9), "ms");
  rep.metric("client.alt_p90_ms", quantile(part_ms, 0.9), "ms");
  rep.metric("client.trace_overhead", median(flat_ms[1]) - median(flat_ms[0]), "ms");
  if (!opt.trace_out.empty()) tracer.write_chrome(opt.trace_out);
}

}  // namespace perfbench
