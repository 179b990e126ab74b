// Figure 5: the headline heatmap — execution time of Wasp and the six
// baselines on every graph class; each column shows the slowdown of each
// implementation relative to the column's best.
//
// Paper expectation: Wasp is fastest (1.0x) on most columns, dominates on
// road graphs (> 30x over GBBS) and on Mawi (20-381x over Galois/GAP/MQ, ~4x
// over the pull-enabled GBBS/dstar/rho).
#include <cstdio>
#include <vector>

#include "csv.hpp"
#include "harness.hpp"
#include "support/stats.hpp"

using namespace wasp;

int main(int argc, char** argv) {
  ArgParser args("fig05_heatmap", "Figure 5: performance heatmap");
  bench::add_common_args(args);
  args.parse(argc, argv);

  const int threads = static_cast<int>(args.get_int("threads"));
  const int trials = static_cast<int>(args.get_int("trials"));
  Solver& solver = bench::make_solver(threads);
  const auto classes = bench::selected_classes(args);
  const auto algos = bench::figure5_algorithms();
  bench::CsvWriter csv(args.get_string("csv"),
                       "experiment,graph,impl,delta,threads,seconds");

  std::printf("Figure 5: SSSP performance heatmap (threads=%d, scale=%.2f, "
              "best of %d trials)\ncells: slowdown-vs-column-best / time\n\n",
              threads, args.get_double("scale"), trials);

  // times[algo][class]
  std::vector<std::vector<double>> times(algos.size(),
                                         std::vector<double>(classes.size()));
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const auto w = suite::make(classes[c], args.get_double("scale"),
                               static_cast<std::uint64_t>(args.get_int("seed")));
    for (std::size_t a = 0; a < algos.size(); ++a) {
      SsspOptions options;
      options.algo = algos[a];
      options.threads = threads;
      options.delta =
          args.get_flag("tune")
              ? bench::tune_delta(w.graph, w.source, options, {}, 1, solver)
              : bench::default_delta(algos[a], classes[c]);
      times[a][c] =
          bench::measure(w.graph, w.source, options, trials, solver).best_seconds;
      csv.row("fig05", suite::abbr(classes[c]), to_string(algos[a]),
              options.delta, threads, times[a][c]);
    }
  }

  bench::print_cell("impl", 8);
  for (const auto cls : classes) bench::print_cell(suite::abbr(cls), 16);
  std::printf("\n");
  for (std::size_t a = 0; a < algos.size(); ++a) {
    bench::print_cell(to_string(algos[a]), 8);
    for (std::size_t c = 0; c < classes.size(); ++c) {
      double best = 1e100;
      for (std::size_t x = 0; x < algos.size(); ++x)
        best = std::min(best, times[x][c]);
      char cell[64];
      std::snprintf(cell, sizeof(cell), "%5.2fx %8s", times[a][c] / best,
                    bench::format_time_ms(times[a][c]).c_str());
      bench::print_cell(cell, 16);
    }
    std::printf("\n");
  }

  // Column winners + Wasp's aggregate standing.
  int wasp_wins = 0;
  std::vector<double> wasp_vs_best;
  const std::size_t wasp_row = algos.size() - 1;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    double best = 1e100;
    for (std::size_t a = 0; a < algos.size(); ++a)
      best = std::min(best, times[a][c]);
    if (times[wasp_row][c] <= best * 1.0001) ++wasp_wins;
    wasp_vs_best.push_back(times[wasp_row][c] / best);
  }
  std::printf("\nWasp is fastest on %d of %zu classes (gmean slowdown vs "
              "best: %.2fx).\nExpectation (paper): Wasp wins most columns, "
              "with at most two losses >= 10%%.\n",
              wasp_wins, classes.size(), geometric_mean(wasp_vs_best));
  return 0;
}
