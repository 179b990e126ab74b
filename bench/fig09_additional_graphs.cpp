// Figure 9 + Table 4 (Appendix A): the reviewer-requested additional
// datasets with the truncated-normal weighting scheme, compared across all
// implementations.
//
// Paper expectation: results are more varied than the main suite — Wasp is
// not always fastest (up to 47% slower in spots) but is the best performer
// overall, with gmean speedups from ~1.15x (dstar) to ~3.9x (GBBS).
#include <cstdio>
#include <vector>

#include "csv.hpp"
#include "harness.hpp"
#include "support/stats.hpp"

using namespace wasp;

int main(int argc, char** argv) {
  ArgParser args("fig09_additional_graphs",
                 "Figure 9: appendix dataset heatmap");
  bench::add_common_args(args);
  args.parse(argc, argv);

  const int threads = static_cast<int>(args.get_int("threads"));
  const int trials = static_cast<int>(args.get_int("trials"));
  Solver& solver = bench::make_solver(threads);
  const auto classes = args.get_string("graphs").empty()
                           ? suite::appendix_suite()
                           : bench::selected_classes(args);
  const auto algos = bench::figure5_algorithms();
  bench::CsvWriter csv(args.get_string("csv"),
                       "experiment,graph,impl,delta,threads,seconds");

  std::printf("Figure 9: appendix datasets (truncated-normal weights, "
              "threads=%d)\ncells: slowdown-vs-column-best / time\n\n", threads);

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
      csv.row("fig09", suite::abbr(classes[c]), to_string(algos[a]),
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

  const std::size_t wasp_row = algos.size() - 1;
  std::printf("\ngmean speedup of Wasp over each baseline:\n");
  std::vector<double> all;
  for (std::size_t a = 0; a + 1 < algos.size(); ++a) {
    std::vector<double> ratios;
    for (std::size_t c = 0; c < classes.size(); ++c)
      ratios.push_back(times[a][c] / times[wasp_row][c]);
    all.insert(all.end(), ratios.begin(), ratios.end());
    std::printf("  vs %-8s %s\n", to_string(algos[a]),
                bench::format_speedup(geometric_mean(ratios)).c_str());
  }
  std::printf("  overall     %s\n",
              bench::format_speedup(geometric_mean(all)).c_str());
  std::printf("\nExpectation (paper): varied results, Wasp best overall "
              "(~1.66x gmean) but not on every column.\n");
  return 0;
}
