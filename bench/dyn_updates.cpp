// Dynamic-update repair throughput: a VersionedGraph absorbing seeded
// traffic batches (weight jams and clearings, plus --closures K road
// closures and reopenings per batch) while an IncrementalSolver keeps one
// (graph, source) answer fresh — repairing only the affected cone —
// against a second pooled Solver re-solving from scratch after every
// batch. Every batch's repaired distances are checked bit-identical to the
// from-scratch answer before timing is trusted. The update itself (apply
// plus graph(), which compacts when the graph is dirty) is timed apart
// from the repair, with the compactions it ran. Beside the times, each row
// counts the repair's work: cone and seed vertices, the engine's updates
// and processed vertices, and the answer entries the publish wrote per
// repair. It splits the
// repair's mean wall time into the cone walk, the engine and the publish,
// and counts the repairs that stayed inline and those that escalated to
// the team.
//
// Besides the table, writes a machine-readable JSON report (default
// BENCH_dyn.json; tools/bench_check.py validates it, and the ctest smoke
// job runs a tiny instance with --schema-only).
//
// --cone-sweep instead measures the budget behind kInlineRepairWork
// (sssp/incremental.hpp): for jam batches of growing size, a repair's
// engine time on one worker against a team Solver under the width rule.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
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
#include "support/random.hpp"
#include "support/stats.hpp"
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
  /// Engine updates (successful lowerings) per incremental repair: the
  /// repair's work as a count, not a time. Exact on one worker; a team
  /// repair's count varies with how its workers interleave.
  double mean_repair_updates = 0.0;
  /// Engine vertices processed (kVerticesProcessed) per incremental repair,
  /// both runs of an escalated one: the work count a replay would inflate.
  double mean_repair_processed = 0.0;
  /// Answer entries the publish wrote per incremental repair
  /// (RepairStats::published_entries): the previous and current change sets
  /// on a recycled buffer, n plus the change set on a copy, n on a decode.
  double mean_published_entries = 0.0;
  /// A repair's layers, means over the incremental repairs (means add up,
  /// medians do not): the cone walk, the engine's parallel phases and the
  /// publish. They sum to at most mean_repair_ms, the mean wall time of
  /// the same repairs; the rest is the engine's setup and join.
  double walk_ms = 0.0;
  double engine_ms = 0.0;
  double publish_ms = 0.0;
  double mean_repair_ms = 0.0;
  int incremental_repairs = 0;
  int inline_repairs = 0;     ///< repairs that ran on one worker
  int escalated_repairs = 0;  ///< repairs the team finished
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
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"graph\": \"%s\", \"algo\": \"%s\", \"batches\": %d, "
        "\"ops_per_batch\": %d, \"closures\": %d, "
        "\"update_ms\": %.6f, \"compactions_per_batch\": %.3f, "
        "\"repair_ms\": %.6f, \"full_ms\": %.6f, "
        "\"speedup\": %.3f, \"mean_cone\": %.1f, \"mean_seeds\": %.1f, "
        "\"mean_repair_updates\": %.1f, \"mean_repair_processed\": %.1f, "
        "\"mean_published_entries\": %.1f, "
        "\"walk_ms\": %.6f, \"engine_ms\": %.6f, \"publish_ms\": %.6f, "
        "\"mean_repair_ms\": %.6f, "
        "\"incremental_repairs\": %d, "
        "\"inline_repairs\": %d, \"escalated_repairs\": %d, "
        "\"full_solves\": %d, \"exact\": %s}%s\n",
        r.graph.c_str(), r.algo.c_str(), r.batches, r.ops_per_batch,
        r.closures, r.update_ms, r.compactions_per_batch, r.repair_ms,
        r.full_ms, r.speedup, r.mean_cone, r.mean_seeds,
        r.mean_repair_updates, r.mean_repair_processed,
        r.mean_published_entries, r.walk_ms,
        r.engine_ms, r.publish_ms, r.mean_repair_ms,
        r.incremental_repairs, r.inline_repairs, r.escalated_repairs,
        r.full_solves,
        r.exact ? "true" : "false", i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

/// Engine vertices the solver's last run processed (an escalated repair's
/// two runs together: the registry is reset once per repair).
std::uint64_t processed(IncrementalSolver& inc) {
  return inc.solver().metrics().snapshot().counter(
      obs::CounterId::kVerticesProcessed);
}

/// --cone-sweep on one class. Jams (x4) a growing number (x1.5 a step) of
/// shortest-path-tree arcs of the base graph and repairs them through two
/// IncrementalSolvers, `reps` times each, alternating: one on a
/// one-thread Solver, where the whole repair runs on the calling thread,
/// and one on a `threads`-worker Solver, which starts inline and escalates
/// to its team at kInlineRepairWork processed vertices. Both run the
/// real re-priced cone walk. Between reps the jams are cleared again
/// (untimed), and each timed repair follows a 2 ms idle gap, as a traffic
/// tick reaches a sleeping team. The times are the engine's (walk and
/// publish excluded), medians over the reps. Every repair is checked
/// against Dijkstra; returns false on a mismatch.
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

  std::printf("%s (n = %u, delta = %u): repairs on 1 worker vs %d by the "
              "width rule, engine medians of %d\n",
              suite::abbr(cls), n, delta, threads, reps);
  bench::print_cell("jams", 7);
  bench::print_cell("cone", 9);
  bench::print_cell("seeds", 8);
  bench::print_cell("processed", 10);
  bench::print_cell("1 worker", 11);
  bench::print_cell("team", 11);
  bench::print_cell("team/1", 8);
  bench::print_cell("escalated", 10);
  bench::print_cell("check", 7);
  std::printf("\n");

  Xoshiro256 rng(seed ^ 0xC0DE5EEDULL);
  bool all_exact = true;
  for (std::uint64_t jams = 1; jams <= n; jams += (jams + 1) / 2) {
    // Jam the tree arc into `jams` random reachable vertices; `clear`
    // restores their base weights.
    GraphDelta batch;
    GraphDelta clear;
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
        clear.set_weight(u, v, e.w);
        break;
      }
    }

    // One side of the sweep: a Solver width, its own copy of the graph, and
    // its last repair's stats and engine vertices.
    struct Width {
      VersionedGraph vg;
      IncrementalSolver inc;
      std::vector<double> times;
      RepairStats last;
      std::uint64_t processed = 0;
    };
    const auto options_for = [&](int t) {
      SsspOptions options;
      options.algo = Algorithm::kWasp;
      options.threads = t;
      options.delta = delta;
      return options;
    };
    Width one{VersionedGraph{Graph(base)}, IncrementalSolver(options_for(1)),
              {}, {}, 0};
    Width team{VersionedGraph{Graph(base)},
               IncrementalSolver(options_for(threads)), {}, {}, 0};
    std::vector<Distance> exact;
    bool exact_ok = true;
    const auto timed_repair = [&](Width& width) {
      if (width.times.empty()) (void)width.inc.solve(width.vg, source);
      (void)width.vg.apply(batch);
      if (exact.empty()) exact = dijkstra(width.vg.graph(), source).dist;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      if (width.inc.solve(width.vg, source) != exact) exact_ok = false;
      width.last = width.inc.last_repair();
      width.times.push_back(width.last.seconds);
      width.processed = processed(width.inc);
      (void)width.vg.apply(clear);
      if (width.inc.solve(width.vg, source) != warm) exact_ok = false;
    };
    for (int r = 0; r < reps; ++r) {
      timed_repair(r % 2 == 0 ? one : team);
      timed_repair(r % 2 == 0 ? team : one);
    }
    all_exact = all_exact && exact_ok;

    const double one_ms = median(one.times) * 1e3;
    const double team_ms = median(team.times) * 1e3;
    char cell[32];
    std::snprintf(cell, sizeof(cell), "%llu",
                  static_cast<unsigned long long>(jams));
    bench::print_cell(cell, 7);
    std::snprintf(cell, sizeof(cell), "%llu",
                  static_cast<unsigned long long>(one.last.cone_vertices));
    bench::print_cell(cell, 9);
    std::snprintf(cell, sizeof(cell), "%llu",
                  static_cast<unsigned long long>(one.last.seed_vertices));
    bench::print_cell(cell, 8);
    std::snprintf(cell, sizeof(cell), "%llu",
                  static_cast<unsigned long long>(one.processed));
    bench::print_cell(cell, 10);
    std::snprintf(cell, sizeof(cell), "%.4fms", one_ms);
    bench::print_cell(cell, 11);
    std::snprintf(cell, sizeof(cell), "%.4fms", team_ms);
    bench::print_cell(cell, 11);
    std::snprintf(cell, sizeof(cell), "%.2f",
                  one_ms > 0 ? team_ms / one_ms : 0.0);
    bench::print_cell(cell, 8);
    bench::print_cell(team.last.workers > 1 ? "yes" : "no", 10);
    bench::print_cell(exact_ok ? "exact" : "MISMATCH", 7);
    std::printf("\n");
    std::fflush(stdout);
    if (one.last.cone_vertices > n / 2) break;
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
                "time repairs of growing jam batches on one worker vs the "
                "width rule's team (the kInlineRepairWork budget); no "
                "report");
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
    std::printf("Cone sweep: kInlineRepairWork = %llu (a repair that "
                "reaches it with work left escalates to the team)\n\n",
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
  bench::print_cell("updates", 9);
  bench::print_cell("processed", 10);
  bench::print_cell("written", 9);
  bench::print_cell("walk", 10);
  bench::print_cell("engine", 10);
  bench::print_cell("publish", 10);
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
    // (graph, source) state, the scratch solver allocates its pooled array.
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
    std::uint64_t update_total = 0;
    std::uint64_t processed_total = 0;
    std::uint64_t published_total = 0;
    double walk_total = 0.0;
    double engine_total = 0.0;
    double publish_total = 0.0;
    double repair_total = 0.0;
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
      const Answer& repaired = inc.solve(vg, source);
      repair_times.push_back(rt.seconds());
      const RepairStats& rs = inc.last_repair();
      if (rs.full_solve) {
        row.full_solves += 1;
      } else {
        row.incremental_repairs += 1;
        ++(rs.workers == 1 ? row.inline_repairs : row.escalated_repairs);
        walk_total += rs.walk_seconds;
        engine_total += rs.seconds;
        publish_total += rs.publish_seconds;
        repair_total += repair_times.back();
        cone_total += rs.cone_vertices;
        seed_total += rs.seed_vertices;
        update_total += inc.solver().metrics().snapshot().counter(
            obs::CounterId::kUpdates);
        processed_total += processed(inc);
        published_total += rs.published_entries;
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
    row.mean_repair_updates =
        static_cast<double>(update_total) / static_cast<double>(inc_count);
    row.mean_repair_processed =
        static_cast<double>(processed_total) / static_cast<double>(inc_count);
    row.mean_published_entries =
        static_cast<double>(published_total) / static_cast<double>(inc_count);
    row.walk_ms = walk_total / inc_count * 1e3;
    row.engine_ms = engine_total / inc_count * 1e3;
    row.publish_ms = publish_total / inc_count * 1e3;
    row.mean_repair_ms = repair_total / inc_count * 1e3;
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
    std::snprintf(cell, sizeof(cell), "%.0f", row.mean_repair_updates);
    bench::print_cell(cell, 9);
    std::snprintf(cell, sizeof(cell), "%.0f", row.mean_repair_processed);
    bench::print_cell(cell, 10);
    std::snprintf(cell, sizeof(cell), "%.0f", row.mean_published_entries);
    bench::print_cell(cell, 9);
    for (const double ms : {row.walk_ms, row.engine_ms, row.publish_ms}) {
      std::snprintf(cell, sizeof(cell), "%.4fms", ms);
      bench::print_cell(cell, 10);
    }
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
