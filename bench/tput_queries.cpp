// Repeated-query throughput: one Solver answering a seeded stream of source
// queries per suite graph — the workload the query-throughput fast path
// (pooled epoch-versioned distances, one thread team, one NUMA detection)
// exists for. Reports the first-solve latency (cold: distance-array
// allocation + O(V) sweep + first-touch faults) against the steady-state
// median of the remaining queries, plus steady-state queries/sec.
//
// Besides the table, writes a machine-readable JSON report (default
// BENCH_tput.json; see docs/PERFORMANCE.md for the schema and
// tools/bench_check.py for the validator the perf-smoke CI job runs).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "graph/algorithms.hpp"
#include "harness.hpp"
#include "support/stats.hpp"
#include "support/timer.hpp"

using namespace wasp;

namespace {

struct Row {
  std::string graph;
  std::string algo;
  int queries = 0;
  double first_ms = 0.0;
  double steady_ms = 0.0;
  double qps = 0.0;
  std::uint64_t epoch_sweeps = 0;
  std::uint64_t prefetch_issued = 0;
};

void write_json(const std::string& path, int threads, int queries,
                double scale, int distinct, const std::vector<Row>& rows) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"schema_version\": 1,\n"
      << "  \"bench\": \"tput_queries\",\n"
      << "  \"threads\": " << threads << ",\n"
      << "  \"queries\": " << queries << ",\n"
      << "  \"scale\": " << scale << ",\n"
      << "  \"distinct_sources\": " << distinct << ",\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"graph\": \"%s\", \"algo\": \"%s\", \"queries\": %d, "
                  "\"first_ms\": %.6f, \"steady_ms\": %.6f, \"qps\": %.3f, "
                  "\"epoch_sweeps\": %llu, \"prefetch_issued\": %llu}%s\n",
                  r.graph.c_str(), r.algo.c_str(), r.queries, r.first_ms,
                  r.steady_ms, r.qps,
                  static_cast<unsigned long long>(r.epoch_sweeps),
                  static_cast<unsigned long long>(r.prefetch_issued),
                  i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("tput_queries",
                 "repeat-query throughput through one pooled Solver");
  bench::add_common_args(args);
  args.add_int("queries", 32, "queries per graph (the first reported apart)");
  args.add_int("distinct", 4, "distinct sources the stream cycles through");
  args.add_string("algo", "wasp", "algorithm answering the query stream");
  args.add_string("out", "BENCH_tput.json", "machine-readable report path");
  args.parse(argc, argv);

  const int threads = static_cast<int>(args.get_int("threads"));
  const int queries =
      static_cast<int>(std::max<std::int64_t>(2, args.get_int("queries")));
  const Algorithm algo = parse_algorithm(args.get_string("algo"));
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const int distinct =
      std::clamp(static_cast<int>(args.get_int("distinct")), 1, queries);

  std::printf("Repeat-query throughput: %d queries/graph through one Solver "
              "(algo=%s, threads=%d)\n\n",
              queries, to_string(algo), threads);
  bench::print_cell("graph", 7);
  bench::print_cell("first", 12);
  bench::print_cell("steady", 12);
  bench::print_cell("gain", 8);
  bench::print_cell("qps", 10);
  bench::print_cell("sweeps", 8);
  std::printf("\n");

  std::vector<Row> rows;
  for (const auto cls : bench::selected_classes(args)) {
    const auto w = suite::make(cls, args.get_double("scale"), seed);

    // The query stream: seeded sources in the largest component, drawn
    // before timing starts (component discovery is not part of a query).
    // The stream cycles through a small distinct set so the first query's
    // source recurs in steady state — steady_ms is measured on those
    // revisits, comparing identical work with a cold vs warm front-end.
    std::vector<VertexId> pool;
    for (int i = 0; i < distinct; ++i)
      pool.push_back(
          pick_source_in_largest_component(w.graph, seed + 7919u * i));
    std::vector<VertexId> sources;
    for (int q = 0; q < queries; ++q) sources.push_back(pool[q % distinct]);

    Row row;
    row.graph = suite::abbr(cls);
    row.algo = to_string(algo);
    row.queries = queries;

    // First-query latency: everything a cold service pays before its first
    // answer — Solver construction (worker spawn, NUMA detection), the
    // distance-array allocation with its O(V) sweep and first-touch faults,
    // and the solve itself against cold caches. One sample, because there is
    // only one genuinely first solve; it is systematically the slowest.
    Timer cold;
    Solver& solver = bench::make_solver(threads);
    solver.options().algo = algo;
    solver.options().delta = bench::default_delta(algo, cls);
    std::vector<double> times;
    std::vector<double> first_source_repeats;
    {
      const SsspResult r = solver.solve(w.graph, sources[0]);
      times.push_back(cold.seconds());
      row.epoch_sweeps += r.metrics.counter(obs::CounterId::kEpochSweeps);
      row.prefetch_issued += r.metrics.counter(obs::CounterId::kPrefetchIssued);
    }
    row.first_ms = times.front() * 1e3;

    // Steady state: the same Solver answers the rest of the stream through
    // the pooled front-end (epoch-bump re-init, no allocation, warm team).
    // The steady latency is measured on revisits of the first query's own
    // source — identical work, warm path.
    for (int q = 1; q < queries; ++q) {
      Timer t;
      const SsspResult r = solver.solve(w.graph, sources[q]);
      times.push_back(t.seconds());
      if (sources[q] == sources[0])
        first_source_repeats.push_back(times.back());
      row.epoch_sweeps += r.metrics.counter(obs::CounterId::kEpochSweeps);
      row.prefetch_issued += r.metrics.counter(obs::CounterId::kPrefetchIssued);
    }
    const std::vector<double> tail(times.begin() + 1, times.end());
    row.steady_ms = (first_source_repeats.empty() ? median(tail)
                                                  : median(first_source_repeats)) *
                    1e3;
    const double tail_seconds =
        std::accumulate(tail.begin(), tail.end(), 0.0);
    row.qps = tail_seconds > 0 ? static_cast<double>(tail.size()) / tail_seconds
                               : 0.0;
    rows.push_back(row);

    char cell[32];
    bench::print_cell(row.graph, 7);
    bench::print_cell(bench::format_time_ms(times.front()), 12);
    bench::print_cell(bench::format_time_ms(row.steady_ms / 1e3), 12);
    std::snprintf(cell, sizeof(cell), "%.2fx", row.first_ms / row.steady_ms);
    bench::print_cell(cell, 8);
    std::snprintf(cell, sizeof(cell), "%.1f", row.qps);
    bench::print_cell(cell, 10);
    std::snprintf(cell, sizeof(cell), "%llu",
                  static_cast<unsigned long long>(row.epoch_sweeps));
    bench::print_cell(cell, 8);
    std::printf("\n");
    std::fflush(stdout);
  }

  const std::string out_path = args.get_string("out");
  write_json(out_path, threads, queries, args.get_double("scale"), distinct,
             rows);
  std::printf("\nreport written to %s\n", out_path.c_str());
  std::printf("Expectation: one epoch sweep per graph (the first acquire); "
              "steady-state latency below first-solve latency.\n");
  return 0;
}
