// Figure 1 (right): execution-time breakdown of GAP-style synchronous
// delta-stepping — what fraction of total CPU time is spent waiting at
// barriers, per graph class.
//
// Paper expectation: the largest barrier overheads are on the road graphs
// (EU, USA) and some skewed-degree graphs (TW, MW); the artifact's expected
// result is > 20% barrier time on at least 6 of the 13 graphs.
#include <cstdio>

#include "csv.hpp"
#include "harness.hpp"

using namespace wasp;

int main(int argc, char** argv) {
  ArgParser args("fig01_barrier_breakdown",
                 "Figure 1: barrier share of GAP delta-stepping");
  bench::add_common_args(args);
  args.parse(argc, argv);

  const int threads = static_cast<int>(args.get_int("threads"));
  const int trials = static_cast<int>(args.get_int("trials"));
  Solver& solver = bench::make_solver(threads);
  bench::CsvWriter csv(args.get_string("csv"),
                       "experiment,graph,delta,seconds,rounds,barrier_pct");

  std::printf("Figure 1: GAP delta-stepping execution breakdown "
              "(threads=%d, scale=%.2f)\n\n", threads, args.get_double("scale"));
  std::printf("%-6s %-10s %-10s %-9s %-10s %-8s\n", "graph", "delta", "time",
              "rounds", "barrier%", "compute%");

  for (const auto cls : bench::selected_classes(args)) {
    const auto w = suite::make(cls, args.get_double("scale"),
                               static_cast<std::uint64_t>(args.get_int("seed")));
    SsspOptions options;
    options.algo = Algorithm::kDeltaStepping;
    options.threads = threads;
    options.delta = args.get_flag("tune")
                        ? bench::tune_delta(w.graph, w.source, options, {},
                                            1, solver)
                        : bench::default_delta(options.algo, cls);
    const bench::Measurement m =
        bench::measure(w.graph, w.source, options, trials, solver);

    // Breakdown columns come from the best trial's metrics snapshot, the
    // same source the JSON/CSV exporters read.
    const std::uint64_t rounds = m.metrics.counter(obs::CounterId::kRounds);
    const std::uint64_t barrier_ns =
        m.metrics.counter(obs::CounterId::kBarrierNs);
    const double total_cpu_ns = m.metrics.seconds * 1e9 * threads;
    const double barrier_pct =
        total_cpu_ns > 0 ? 100.0 * static_cast<double>(barrier_ns) /
                               total_cpu_ns
                         : 0.0;
    std::printf("%-6s %-10u %-10s %-9llu %-10.1f %-8.1f\n", suite::abbr(cls),
                options.delta, bench::format_time_ms(m.best_seconds).c_str(),
                static_cast<unsigned long long>(rounds), barrier_pct,
                100.0 - barrier_pct);
    csv.row("fig01", suite::abbr(cls), options.delta, m.best_seconds, rounds,
            barrier_pct);
  }
  std::printf("\nExpectation (paper): road + low-degree classes show the "
              "highest barrier share;\nseveral classes exceed 20%%.\n");
  return 0;
}
