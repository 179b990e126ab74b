// Table 3: self-speedup of every implementation — T-thread time relative to
// its own 1-thread time, per graph class.
//
// Paper expectation: no implementation dominates everywhere; Wasp posts good
// self-speedups (best on several classes); GBBS is below 1 on road graphs.
#include <cstdio>
#include <vector>

#include "harness.hpp"

using namespace wasp;

int main(int argc, char** argv) {
  ArgParser args("table3_self_speedup", "Table 3: self-speedup");
  bench::add_common_args(args);
  args.parse(argc, argv);

  const int threads = static_cast<int>(args.get_int("threads"));
  const int trials = static_cast<int>(args.get_int("trials"));
  const auto classes = bench::selected_classes(args);
  const auto algos = bench::figure5_algorithms();

  std::printf("Table 3: self-speedup (t=%d vs t=1, scale=%.2f)\n\n", threads,
              args.get_double("scale"));
  bench::print_cell("graph", 7);
  for (const auto a : algos) bench::print_cell(to_string(a), 8);
  std::printf("\n");

  for (const auto cls : classes) {
    const auto w = suite::make(cls, args.get_double("scale"),
                               static_cast<std::uint64_t>(args.get_int("seed")));
    bench::print_cell(suite::abbr(cls), 7);
    for (const auto algo : algos) {
      SsspOptions options;
      options.algo = algo;
      options.delta = bench::default_delta(algo, cls);

      Solver& solver1 = bench::make_solver(1);
      options.threads = 1;
      const double t1 =
          bench::measure(w.graph, w.source, options, trials, solver1)
              .best_seconds;

      Solver& solverN = bench::make_solver(threads);
      options.threads = threads;
      const double tN =
          bench::measure(w.graph, w.source, options, trials, solverN)
              .best_seconds;

      char cell[32];
      std::snprintf(cell, sizeof(cell), "%.2f", t1 / tN);
      bench::print_cell(cell, 8);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  std::printf("\nNote: on a machine with fewer hardware threads than t=%d, "
              "self-speedups reflect\noversubscription, not parallel "
              "speedup — compare relative ordering only.\n", threads);
  return 0;
}
