// Figure 4: the optimal delta per graph class and per implementation, found
// by sweeping powers of the candidate ladder (the paper samples powers of
// two; the artifact calls this task T1 / the SLOW workflow).
//
// Paper expectation: Wasp's best delta is 1 (or minimal) on most
// skewed-degree graphs, while the synchronous steppers need coarse deltas
// broadly and *everything* needs coarse deltas on road/kmer classes.
#include <cstdio>

#include "harness.hpp"

using namespace wasp;

int main(int argc, char** argv) {
  ArgParser args("fig04_delta_tuning", "Figure 4: optimal delta heatmap");
  bench::add_common_args(args);
  args.parse(argc, argv);

  const int threads = static_cast<int>(args.get_int("threads"));
  Solver& solver = bench::make_solver(threads);
  const auto classes = bench::selected_classes(args);
  const std::vector<Algorithm> algos = {
      Algorithm::kDeltaStar, Algorithm::kObim, Algorithm::kDeltaStepping,
      Algorithm::kJulienne, Algorithm::kRhoStepping, Algorithm::kWasp};

  std::printf("Figure 4: optimal delta per class x implementation "
              "(threads=%d, scale=%.2f)\n\n", threads, args.get_double("scale"));
  bench::print_cell("impl", 8);
  for (const auto cls : classes) bench::print_cell(suite::abbr(cls), 8);
  std::printf("   (rho row shows the tuned rho, not a delta)\n");

  // Build each workload once; sweep all implementations against it.
  std::vector<std::vector<Weight>> table(
      algos.size(), std::vector<Weight>(classes.size(), 1));
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const auto w = suite::make(classes[c], args.get_double("scale"),
                               static_cast<std::uint64_t>(args.get_int("seed")));
    for (std::size_t a = 0; a < algos.size(); ++a) {
      SsspOptions options;
      options.algo = algos[a];
      options.threads = threads;
      if (algos[a] == Algorithm::kRhoStepping) {
        // rho-stepping's tuning knob is rho, not delta (Dong et al.); sweep
        // it over a power ladder and report the best rho in its row.
        double best_time = 1e100;
        std::uint64_t best_rho = 1 << 10;
        for (std::uint64_t rho = 1 << 8; rho <= 1 << 18; rho <<= 2) {
          options.stepping.rho = rho;
          const double t =
              bench::measure(w.graph, w.source, options, 1, solver).best_seconds;
          if (t < best_time) {
            best_time = t;
            best_rho = rho;
          }
        }
        table[a][c] = static_cast<Weight>(best_rho);
        continue;
      }
      table[a][c] = bench::tune_delta(w.graph, w.source, options, {}, 1, solver);
    }
  }
  for (std::size_t a = 0; a < algos.size(); ++a) {
    bench::print_cell(to_string(algos[a]), 8);
    for (std::size_t c = 0; c < classes.size(); ++c)
      bench::print_cell(std::to_string(table[a][c]), 8);
    std::printf("\n");
  }

  // Summary check mirroring the paper's observation.
  int wasp_minimal = 0;
  int wasp_total = 0;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    if (bench::is_low_degree_class(classes[c])) continue;
    ++wasp_total;
    if (table.back()[c] <= 4) ++wasp_minimal;
  }
  std::printf("\nWasp picks a minimal delta (<=4) on %d of %d non-road "
              "classes.\nExpectation (paper): Wasp prefers low deltas except "
              "on low-degree graphs.\n", wasp_minimal, wasp_total);
  return 0;
}
