// Figure 2: execution-time breakdown of parallel Dijkstra on the MultiQueue
// — the share of total CPU time spent inside (locked) queue operations.
//
// Paper expectation: queue operations take 20-30% of execution time on most
// graphs (the artifact's expected result: > 20% on all graphs).
#include <cstdio>

#include "csv.hpp"
#include "harness.hpp"

using namespace wasp;

int main(int argc, char** argv) {
  ArgParser args("fig02_queue_breakdown",
                 "Figure 2: MultiQueue queue-operation share");
  bench::add_common_args(args);
  args.parse(argc, argv);

  const int threads = static_cast<int>(args.get_int("threads"));
  const int trials = static_cast<int>(args.get_int("trials"));
  Solver& solver = bench::make_solver(threads);
  bench::CsvWriter csv(args.get_string("csv"),
                       "experiment,graph,seconds,queue_op_pct,relaxations");

  std::printf("Figure 2: MultiQueue parallel Dijkstra breakdown "
              "(threads=%d, c=2, b=16)\n\n", threads);
  std::printf("%-6s %-10s %-12s %-10s %-10s\n", "graph", "time", "queue-ops%",
              "compute%", "relaxations");

  for (const auto cls : bench::selected_classes(args)) {
    const auto w = suite::make(cls, args.get_double("scale"),
                               static_cast<std::uint64_t>(args.get_int("seed")));
    SsspOptions options;
    options.algo = Algorithm::kMqDijkstra;
    options.threads = threads;
    const bench::Measurement m =
        bench::measure(w.graph, w.source, options, trials, solver);

    // Breakdown columns come from the best trial's metrics snapshot.
    const std::uint64_t queue_op_ns =
        m.metrics.counter(obs::CounterId::kQueueOpNs);
    const std::uint64_t relaxations =
        m.metrics.counter(obs::CounterId::kRelaxations);
    const double total_cpu_ns = m.metrics.seconds * 1e9 * threads;
    const double q_pct =
        total_cpu_ns > 0 ? 100.0 * static_cast<double>(queue_op_ns) /
                               total_cpu_ns
                         : 0.0;
    std::printf("%-6s %-10s %-12.1f %-10.1f %-10llu\n", suite::abbr(cls),
                bench::format_time_ms(m.best_seconds).c_str(), q_pct,
                100.0 - q_pct,
                static_cast<unsigned long long>(relaxations));
    csv.row("fig02", suite::abbr(cls), m.best_seconds, q_pct, relaxations);
  }
  std::printf("\nExpectation (paper): queue operations are ~20-30%% of the "
              "execution time on most graphs.\n");
  return 0;
}
