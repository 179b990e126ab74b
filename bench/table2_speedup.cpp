// Table 2: geometric-mean speedup of Wasp over each baseline across all
// graph classes.
//
// Paper expectation (gmean across both machines): dstar 1.66x, Galois 1.94x,
// GAP 1.72x, GBBS 3.42x, MQ 2.74x, rho 2.15x — overall 2.2x. We check the
// shape: every gmean > 1, GBBS and MQ the largest.
#include <cstdio>
#include <fstream>
#include <vector>

#include "csv.hpp"
#include "harness.hpp"
#include "support/stats.hpp"

using namespace wasp;

int main(int argc, char** argv) {
  ArgParser args("table2_speedup", "Table 2: gmean speedup of Wasp");
  bench::add_common_args(args);
  args.parse(argc, argv);

  const int threads = static_cast<int>(args.get_int("threads"));
  const int trials = static_cast<int>(args.get_int("trials"));
  Solver& solver = bench::make_solver(threads);
  const auto classes = bench::selected_classes(args);
  const auto algos = bench::figure5_algorithms();  // wasp last
  bench::CsvWriter csv(args.get_string("csv"),
                       "experiment,graph,impl,delta,threads,seconds,status");
  // With --trace, every run records into per-thread event rings (most recent
  // events win) and the Chrome trace JSON is written at exit. Under
  // WASP_OBS=OFF this is the no-op stub and the file is an empty trace.
  const std::string trace_path = args.get_string("trace");
  obs::TraceRecorder trace(threads);

  std::vector<std::vector<double>> times(algos.size(),
                                         std::vector<double>(classes.size()));
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const auto w = suite::make(classes[c], args.get_double("scale"),
                               static_cast<std::uint64_t>(args.get_int("seed")));
    for (std::size_t a = 0; a < algos.size(); ++a) {
      SsspOptions options;
      options.algo = algos[a];
      options.threads = threads;
      if (!trace_path.empty()) options.trace = &trace;
      options.delta =
          args.get_flag("tune")
              ? bench::tune_delta(w.graph, w.source, options, {}, 1, solver)
              : bench::default_delta(algos[a], classes[c]);
      const bench::Measurement m =
          bench::measure(w.graph, w.source, options, trials, solver,
                         args.get_double("watchdog-sec"));
      times[a][c] = m.best_seconds;
      // Hung runs become structured "watchdog-timeout" rows with NaN times
      // instead of wedging the remaining configurations.
      csv.row("table2", suite::abbr(classes[c]), to_string(algos[a]),
              options.delta, threads, times[a][c],
              m.ok() ? "ok" : m.failure);
    }
  }

  std::printf("Table 2: geometric-mean speedup of Wasp over each baseline "
              "(threads=%d, %zu classes)\n\n", threads, classes.size());
  std::printf("%-8s %-10s\n", "baseline", "speedup");
  const std::size_t wasp_row = algos.size() - 1;
  std::vector<double> all;
  for (std::size_t a = 0; a + 1 < algos.size(); ++a) {
    std::vector<double> ratios;
    for (std::size_t c = 0; c < classes.size(); ++c)
      ratios.push_back(times[a][c] / times[wasp_row][c]);
    const double g = geometric_mean(ratios);
    all.insert(all.end(), ratios.begin(), ratios.end());
    std::printf("%-8s %-10s\n", to_string(algos[a]),
                bench::format_speedup(g).c_str());
  }
  std::printf("%-8s %-10s\n", "gmean", bench::format_speedup(geometric_mean(all)).c_str());
  std::printf("\nExpectation (paper): all speedups > 1; GBBS and MQ show the "
              "largest gaps; overall gmean ~2.2x.\n");

  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    trace.write_chrome_trace(out);
    std::printf("\ntrace written to %s (%llu events dropped)\n",
                trace_path.c_str(),
                static_cast<unsigned long long>(trace.dropped()));
  }
  return 0;
}
