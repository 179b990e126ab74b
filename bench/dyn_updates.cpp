// Dynamic-update repair throughput: a VersionedGraph absorbing seeded
// traffic batches (weight jams and clearings, plus --closures K road
// closures and reopenings per batch) while an IncrementalSolver keeps one
// (graph, source) answer fresh — repairing only the affected cone —
// against a second pooled Solver re-solving from scratch after every
// batch. Every batch's repaired distances are checked bit-identical to the
// from-scratch answer before timing is trusted. The update itself (apply
// plus graph(), which compacts when the graph is dirty) is timed apart
// from the repair, with the compactions it ran.
//
// Besides the table, writes a machine-readable JSON report (default
// BENCH_dyn.json; tools/bench_check.py validates it, and the ctest smoke
// job runs a tiny instance with --schema-only).
//
// --cone-sweep instead measures the crossover behind kInlineRepairWork
// (sssp/incremental.hpp): for cones of growing size, the seeded engine's
// time on one worker against the full team.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "graph/delta.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/incremental.hpp"
#include "sssp/wasp.hpp"
#include "support/numa.hpp"
#include "support/random.hpp"
#include "support/stats.hpp"
#include "support/thread_team.hpp"
#include "support/timer.hpp"

using namespace wasp;

namespace {

struct Row {
  std::string graph;
  std::string algo;
  int batches = 0;
  int ops_per_batch = 0;
  int closures = 0;        ///< arcs closed (and reopened) per batch
  double update_ms = 0.0;  ///< median apply + graph() wall time
  double compactions_per_batch = 0.0;
  double repair_ms = 0.0;  ///< median incremental repair wall time
  double full_ms = 0.0;    ///< median from-scratch re-solve wall time
  double speedup = 0.0;    ///< full_ms / repair_ms
  double mean_cone = 0.0;
  double mean_seeds = 0.0;
  int incremental_repairs = 0;
  int inline_repairs = 0;  ///< repairs that ran on one worker
  int full_solves = 0;
  bool exact = true;  ///< repaired == from-scratch after every batch
};

/// One existing arc, sampled from the current graph state.
WEdge sample_arc(const VersionedGraph& vg, Xoshiro256& rng, VertexId* src) {
  for (;;) {
    const auto u = static_cast<VertexId>(rng.next_below(vg.num_vertices()));
    const auto adj = vg.out_neighbors(u);
    if (adj.empty()) continue;
    *src = u;
    return adj[rng.next_below(adj.size())];
  }
}

void write_json(const std::string& path, int threads, int batches, int ops,
                int closures, double scale, const std::vector<Row>& rows) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"schema_version\": 1,\n"
      << "  \"bench\": \"dyn_updates\",\n"
      << "  \"threads\": " << threads << ",\n"
      << "  \"batches\": " << batches << ",\n"
      << "  \"ops_per_batch\": " << ops << ",\n"
      << "  \"closures\": " << closures << ",\n"
      << "  \"scale\": " << scale << ",\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char buf[768];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"graph\": \"%s\", \"algo\": \"%s\", \"batches\": %d, "
        "\"ops_per_batch\": %d, \"closures\": %d, "
        "\"update_ms\": %.6f, \"compactions_per_batch\": %.3f, "
        "\"repair_ms\": %.6f, \"full_ms\": %.6f, "
        "\"speedup\": %.3f, \"mean_cone\": %.1f, \"mean_seeds\": %.1f, "
        "\"incremental_repairs\": %d, \"inline_repairs\": %d, "
        "\"full_solves\": %d, \"exact\": %s}%s\n",
        r.graph.c_str(), r.algo.c_str(), r.batches, r.ops_per_batch,
        r.closures, r.update_ms, r.compactions_per_batch, r.repair_ms,
        r.full_ms, r.speedup, r.mean_cone, r.mean_seeds,
        r.incremental_repairs, r.inline_repairs, r.full_solves,
        r.exact ? "true" : "false", i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

/// --cone-sweep on one class. Jams (x4) a growing number (x1.5 a step) of
/// shortest-path-tree arcs of the base graph and re-settles the cone they
/// raise with wasp_sssp_seeded, on a one-participant team and on the full
/// team, `reps` times each, alternating. Each timed run follows a 2 ms idle
/// gap, as a traffic tick reaches a sleeping team. The cone is the minimal
/// one: the vertices whose distance the jams raise, at infinity, with every
/// other bound exact and the cone's finite in-neighbours as seeds. A
/// repair's cone walk over-approximates this set, so its work can only be
/// larger for the same jams. Every run is checked against Dijkstra; returns
/// false on a mismatch.
bool cone_sweep(suite::GraphClass cls, double scale, std::uint64_t seed,
                int threads, int reps) {
  auto w = suite::make(cls, scale, seed);
  const Graph& base = w.graph;
  const VertexId source = w.source;
  const VertexId n = base.num_vertices();
  const Weight delta = bench::default_delta(Algorithm::kWasp, cls);
  const Weight max_w = std::max<Weight>(1, base.max_weight());
  const std::vector<Distance> warm = dijkstra(base, source).dist;
  const Graph base_in = GraphBuilder().transpose_of(base).build();

  WaspConfig config;
  config.topology =
      std::make_shared<const NumaTopology>(NumaTopology::detect());
  ThreadTeam solo(1);
  ThreadTeam team(threads);
  obs::MetricsRegistry registry(threads);
  AtomicDistances dist(n);
  LoweredLog log;

  std::printf("%s (n = %u, delta = %u): seeded repair, 1 worker vs %d, "
              "medians of %d\n",
              suite::abbr(cls), n, delta, threads, reps);
  bench::print_cell("jams", 7);
  bench::print_cell("cone", 9);
  bench::print_cell("seeds", 8);
  bench::print_cell("work", 9);
  bench::print_cell("1 worker", 11);
  bench::print_cell("team", 11);
  bench::print_cell("team/1", 8);
  bench::print_cell("picks", 6);
  bench::print_cell("check", 7);
  std::printf("\n");

  Xoshiro256 rng(seed ^ 0xC0DE5EEDULL);
  bool all_exact = true;
  for (std::uint64_t jams = 1; jams <= n; jams += (jams + 1) / 2) {
    // Jam the tree arc into `jams` random reachable vertices.
    GraphDelta batch;
    std::set<std::pair<VertexId, VertexId>> used;
    for (std::uint64_t j = 0; j < jams; ++j) {
      const auto v = static_cast<VertexId>(rng.next_below(n));
      if (v == source || warm[v] == kInfDist) continue;
      for (const WEdge& e : base_in.out_neighbors(v)) {
        const VertexId u = e.dst;  // the arc u -> v
        if (warm[u] == kInfDist || saturating_add(warm[u], e.w) != warm[v])
          continue;
        std::pair<VertexId, VertexId> key(u, v);
        if (base.is_undirected() && v < u) std::swap(key.first, key.second);
        if (!used.insert(key).second) break;
        const auto jam = std::min<std::uint64_t>(std::uint64_t{e.w} * 4,
                                                 std::uint64_t{max_w} * 8);
        batch.set_weight(u, v, static_cast<Weight>(jam));
        break;
      }
    }
    VersionedGraph vg{Graph(base)};
    (void)vg.apply(batch);
    const Graph& g = vg.graph();
    const std::vector<Distance> exact = dijkstra(g, source).dist;

    std::vector<VertexId> cone;
    for (VertexId v = 0; v < n; ++v)
      if (exact[v] != warm[v]) cone.push_back(v);
    std::vector<std::uint8_t> marked(n, 0);
    for (const VertexId c : cone) marked[c] = 1;
    std::vector<VertexId> seeds;
    const Graph g_in = GraphBuilder().transpose_of(g).build();
    for (const VertexId c : cone) {
      for (const WEdge& e : g_in.out_neighbors(c)) {
        if (marked[e.dst] || warm[e.dst] == kInfDist) continue;
        marked[e.dst] = 1;
        seeds.push_back(e.dst);
      }
    }

    bool exact_ok = true;
    const auto timed_run = [&](ThreadTeam& t) {
      for (VertexId v = 0; v < n; ++v) dist.store(v, warm[v]);
      for (const VertexId c : cone) dist.store(c, kInfDist);
      RunContext ctx{t, registry};
      ctx.dist = &dist;
      ctx.prefetch_lookahead = SsspOptions{}.prefetch_lookahead;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      Timer timer;
      (void)wasp_sssp_seeded(g, seeds, delta, config, ctx, &log);
      const double seconds = timer.seconds();
      if (dist.snapshot() != exact) exact_ok = false;
      return seconds;
    };
    std::vector<double> one_times;
    std::vector<double> team_times;
    for (int r = 0; r < reps; ++r) {
      if (r % 2 == 0) {
        one_times.push_back(timed_run(solo));
        team_times.push_back(timed_run(team));
      } else {
        team_times.push_back(timed_run(team));
        one_times.push_back(timed_run(solo));
      }
    }
    all_exact = all_exact && exact_ok;

    const std::uint64_t work = cone.size() + seeds.size();
    const double one_ms = median(one_times) * 1e3;
    const double team_ms = median(team_times) * 1e3;
    char cell[32];
    std::snprintf(cell, sizeof(cell), "%llu",
                  static_cast<unsigned long long>(jams));
    bench::print_cell(cell, 7);
    std::snprintf(cell, sizeof(cell), "%zu", cone.size());
    bench::print_cell(cell, 9);
    std::snprintf(cell, sizeof(cell), "%zu", seeds.size());
    bench::print_cell(cell, 8);
    std::snprintf(cell, sizeof(cell), "%llu",
                  static_cast<unsigned long long>(work));
    bench::print_cell(cell, 9);
    std::snprintf(cell, sizeof(cell), "%.4fms", one_ms);
    bench::print_cell(cell, 11);
    std::snprintf(cell, sizeof(cell), "%.4fms", team_ms);
    bench::print_cell(cell, 11);
    std::snprintf(cell, sizeof(cell), "%.2f",
                  one_ms > 0 ? team_ms / one_ms : 0.0);
    bench::print_cell(cell, 8);
    std::snprintf(cell, sizeof(cell), "%d", repair_workers(work, threads));
    bench::print_cell(cell, 6);
    bench::print_cell(exact_ok ? "exact" : "MISMATCH", 7);
    std::printf("\n");
    std::fflush(stdout);
    if (cone.size() > n / 2) break;
  }
  std::printf("\n");
  return all_exact;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("dyn_updates",
                 "incremental repair vs from-scratch re-solve under batched "
                 "graph updates");
  bench::add_common_args(args);
  args.add_int("batches", 16, "update batches per graph");
  args.add_int("ops", 32, "weight-change operations per batch");
  args.add_int("closures", 0,
               "arcs each batch closes; the oldest closures reopen at their "
               "old weight once more than twice this many are closed");
  args.add_string("out", "BENCH_dyn.json", "machine-readable report path");
  args.add_flag("cone-sweep",
                "time seeded repairs of growing cones on one worker vs the "
                "full team (the kInlineRepairWork crossover); no report");
  args.add_int("reps", 15, "timed runs per cone size and width (--cone-sweep)");
  args.parse(argc, argv);

  const int threads = static_cast<int>(args.get_int("threads"));
  const int batches =
      static_cast<int>(std::max<std::int64_t>(1, args.get_int("batches")));
  const int ops =
      static_cast<int>(std::max<std::int64_t>(1, args.get_int("ops")));
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const int closures =
      static_cast<int>(std::max<std::int64_t>(0, args.get_int("closures")));

  if (args.get_flag("cone-sweep")) {
    const int reps =
        static_cast<int>(std::max<std::int64_t>(1, args.get_int("reps")));
    std::printf("Cone sweep: kInlineRepairWork = %llu (\"picks\" is the "
                "width a repair of that work runs on)\n\n",
                static_cast<unsigned long long>(kInlineRepairWork));
    bool all_exact = true;
    for (const auto cls : bench::selected_classes(args))
      all_exact = cone_sweep(cls, args.get_double("scale"), seed, threads,
                             reps) && all_exact;
    return all_exact ? 0 : 1;
  }

  std::printf("Dynamic updates: %d batches x %d weight changes and %d "
              "closures; incremental repair vs from-scratch (algo=wasp, "
              "threads=%d)\n\n",
              batches, ops, closures, threads);
  bench::print_cell("graph", 7);
  bench::print_cell("update", 12);
  bench::print_cell("compact", 9);
  bench::print_cell("repair", 12);
  bench::print_cell("full", 12);
  bench::print_cell("speedup", 9);
  bench::print_cell("cone", 9);
  bench::print_cell("seeds", 9);
  bench::print_cell("inline", 8);
  bench::print_cell("check", 7);
  std::printf("\n");

  std::vector<Row> rows;
  bool all_exact = true;
  for (const auto cls : bench::selected_classes(args)) {
    auto w = suite::make(cls, args.get_double("scale"), seed);
    const VertexId source = w.source;
    const Weight max_w = std::max<Weight>(1, w.graph.max_weight());
    VersionedGraph vg(std::move(w.graph));

    SsspOptions options;
    options.algo = Algorithm::kWasp;
    options.threads = threads;
    options.delta = bench::default_delta(Algorithm::kWasp, cls);

    IncrementalSolver inc(options);
    Solver& scratch = bench::make_solver(threads);
    scratch.options().algo = Algorithm::kWasp;
    scratch.options().delta = options.delta;

    // Warm both sides before timing: the incremental solver binds its warm
    // (graph, source) state, the scratch solver pays its one epoch sweep.
    (void)inc.solve(vg, source);
    (void)scratch.solve(vg.graph(), source);

    Row row;
    row.graph = suite::abbr(cls);
    row.algo = "wasp";
    row.batches = batches;
    row.ops_per_batch = ops;
    row.closures = closures;

    Xoshiro256 rng(seed ^ 0xD15EA5EDULL);
    std::deque<std::pair<VertexId, WEdge>> closed;  // oldest first
    const std::uint64_t compactions_before = vg.compactions();
    std::vector<double> update_times;
    std::vector<double> repair_times;
    std::vector<double> full_times;
    std::uint64_t cone_total = 0;
    std::uint64_t seed_total = 0;
    for (int b = 0; b < batches; ++b) {
      // Traffic tick: half the arcs jam (weight x4, saturating at 8x the
      // base maximum), half settle back into the base weight range.
      GraphDelta delta;
      for (int op = 0; op < ops; ++op) {
        VertexId u = 0;
        const WEdge e = sample_arc(vg, rng, &u);
        if (op % 2 == 0) {
          const auto jam = static_cast<Weight>(std::min<std::uint64_t>(
              std::uint64_t{e.w} * 4, std::uint64_t{max_w} * 8));
          delta.set_weight(u, e.dst, std::max<Weight>(1, jam));
        } else {
          delta.set_weight(
              u, e.dst,
              static_cast<Weight>(1 + rng.next_below(max_w)));
        }
      }
      // Road closures: K distinct open edges close, and the oldest closed
      // edges reopen at their old weight. A closed edge is out of the
      // graph's view, so it can be neither jammed nor closed again.
      std::set<std::pair<VertexId, VertexId>> closing;
      for (int c = 0; c < closures; ++c) {
        VertexId u = 0;
        const WEdge e = sample_arc(vg, rng, &u);
        std::pair<VertexId, VertexId> key(u, e.dst);
        if (vg.is_undirected() && e.dst < u) std::swap(key.first, key.second);
        if (!closing.insert(key).second) continue;
        delta.erase(u, e.dst);
        closed.emplace_back(u, e);
      }
      while (closed.size() > 2 * static_cast<std::size_t>(closures)) {
        delta.insert(closed.front().first, closed.front().second.dst,
                     closed.front().second.w);
        closed.pop_front();
      }
      Timer ut;
      (void)vg.apply(delta);
      (void)vg.graph();
      update_times.push_back(ut.seconds());

      Timer rt;
      const std::vector<Distance>& repaired = inc.solve(vg, source);
      repair_times.push_back(rt.seconds());
      const RepairStats& rs = inc.last_repair();
      if (rs.full_solve) {
        row.full_solves += 1;
      } else {
        row.incremental_repairs += 1;
        if (rs.workers == 1) row.inline_repairs += 1;
        cone_total += rs.cone_vertices;
        seed_total += rs.seed_vertices;
      }

      Timer ft;
      const SsspResult full = scratch.solve(vg.graph(), source);
      full_times.push_back(ft.seconds());

      if (full.dist != repaired) row.exact = false;
    }

    row.update_ms = median(update_times) * 1e3;
    row.compactions_per_batch =
        static_cast<double>(vg.compactions() - compactions_before) / batches;
    row.repair_ms = median(repair_times) * 1e3;
    row.full_ms = median(full_times) * 1e3;
    row.speedup = row.repair_ms > 0 ? row.full_ms / row.repair_ms : 0.0;
    const int inc_count = std::max(1, row.incremental_repairs);
    row.mean_cone =
        static_cast<double>(cone_total) / static_cast<double>(inc_count);
    row.mean_seeds =
        static_cast<double>(seed_total) / static_cast<double>(inc_count);
    all_exact = all_exact && row.exact;
    rows.push_back(row);

    char cell[32];
    bench::print_cell(row.graph, 7);
    std::snprintf(cell, sizeof(cell), "%.4fms", row.update_ms);
    bench::print_cell(cell, 12);
    std::snprintf(cell, sizeof(cell), "%.2f", row.compactions_per_batch);
    bench::print_cell(cell, 9);
    bench::print_cell(bench::format_time_ms(row.repair_ms / 1e3), 12);
    bench::print_cell(bench::format_time_ms(row.full_ms / 1e3), 12);
    std::snprintf(cell, sizeof(cell), "%.2fx", row.speedup);
    bench::print_cell(cell, 9);
    std::snprintf(cell, sizeof(cell), "%.0f", row.mean_cone);
    bench::print_cell(cell, 9);
    std::snprintf(cell, sizeof(cell), "%.0f", row.mean_seeds);
    bench::print_cell(cell, 9);
    std::snprintf(cell, sizeof(cell), "%d/%d", row.inline_repairs,
                  row.incremental_repairs);
    bench::print_cell(cell, 8);
    bench::print_cell(row.exact ? "exact" : "MISMATCH", 7);
    std::printf("\n");
    std::fflush(stdout);
  }

  const std::string out_path = args.get_string("out");
  write_json(out_path, threads, batches, ops, closures,
             args.get_double("scale"), rows);
  std::printf("\nreport written to %s\n", out_path.c_str());
  std::printf("Expectation: small-cone repair beats from-scratch re-solve; "
              "distances bit-identical after every batch.\n");
  return all_exact ? 0 : 1;
}
