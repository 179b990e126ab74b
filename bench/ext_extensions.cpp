// Extension benchmarks (beyond the paper's evaluation):
//
//  1. Stealing MultiQueue (related work [52]) vs the MultiQueue vs Wasp —
//     SMQ brackets Wasp from the priority-queue side of the design space.
//  2. Pendant-tree contraction (the preprocessing generalization of leaf
//     pruning, from the authors' follow-up work): core-solve time vs plain
//     solve on leaf-heavy classes, with the one-off preprocessing cost
//     reported separately.
#include <cstdio>
#include <vector>

#include "harness.hpp"
#include "sssp/contracted.hpp"
#include "support/stats.hpp"

using namespace wasp;

int main(int argc, char** argv) {
  ArgParser args("ext_extensions",
                 "extension experiments: SMQ scheduler + pendant contraction");
  bench::add_common_args(args);
  args.parse(argc, argv);

  const int threads = static_cast<int>(args.get_int("threads"));
  const int trials = static_cast<int>(args.get_int("trials"));
  Solver& solver = bench::make_solver(threads);
  const auto classes = bench::selected_classes(args);

  std::printf("Extension 1: Stealing MultiQueue vs MultiQueue vs Wasp "
              "(threads=%d)\n\n", threads);
  std::printf("%-7s %-12s %-12s %-12s\n", "graph", "mq", "smq", "wasp");
  for (const auto cls : classes) {
    const auto w = suite::make(cls, args.get_double("scale"),
                               static_cast<std::uint64_t>(args.get_int("seed")));
    double times[3];
    const Algorithm algos[3] = {Algorithm::kMqDijkstra, Algorithm::kSmqDijkstra,
                                Algorithm::kWasp};
    for (int i = 0; i < 3; ++i) {
      SsspOptions o;
      o.algo = algos[i];
      o.threads = threads;
      o.delta = bench::default_delta(algos[i], cls);
      times[i] = bench::measure(w.graph, w.source, o, trials, solver).best_seconds;
    }
    std::printf("%-7s %-12s %-12s %-12s\n", suite::abbr(cls),
                bench::format_time_ms(times[0]).c_str(),
                bench::format_time_ms(times[1]).c_str(),
                bench::format_time_ms(times[2]).c_str());
    std::fflush(stdout);
  }

  std::printf("\nExtension 2: pendant-tree contraction (undirected classes)\n\n");
  std::printf("%-7s %-12s %-12s %-12s %-12s %-10s\n", "graph", "eliminated",
              "plain", "contracted", "preprocess", "speedup");
  for (const auto cls : classes) {
    const auto w = suite::make(cls, args.get_double("scale"),
                               static_cast<std::uint64_t>(args.get_int("seed")));
    if (!w.graph.is_undirected()) continue;
    SsspOptions o;
    o.algo = Algorithm::kWasp;
    o.threads = threads;
    o.delta = bench::default_delta(o.algo, cls);
    const double plain =
        bench::measure(w.graph, w.source, o, trials, solver).best_seconds;

    double best_core = 1e100;
    ContractedResult cr;
    for (int t = 0; t < trials; ++t) {
      cr = run_sssp_contracted(w.graph, w.source, o);
      best_core = std::min(best_core, cr.result.metrics.seconds);
    }
    char elim[32];
    std::snprintf(elim, sizeof(elim), "%llu (%.0f%%)",
                  static_cast<unsigned long long>(cr.eliminated_vertices),
                  100.0 * static_cast<double>(cr.eliminated_vertices) /
                      static_cast<double>(w.graph.num_vertices()));
    std::printf("%-7s %-12s %-12s %-12s %-12s %-10s\n", suite::abbr(cls), elim,
                bench::format_time_ms(plain).c_str(),
                bench::format_time_ms(best_core).c_str(),
                bench::format_time_ms(cr.preprocess_seconds).c_str(),
                bench::format_speedup(plain / best_core).c_str());
    std::fflush(stdout);
  }
  std::printf("\nExpectation: contraction wins big on leaf-heavy classes (MW) "
              "and is neutral where the 2-core is the whole graph (UR, HC).\n");
  return 0;
}
