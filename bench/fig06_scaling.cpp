// Figure 6: strong scaling of every implementation on four representative
// graph classes, with speedup reported relative to the 1-thread MultiQueue
// run (the paper's common baseline for these plots).
//
// Paper expectation: Wasp starts slower at 1 thread but keeps scaling where
// GAP flattens; GBBS fails to scale on road graphs; Wasp scales best on the
// Mawi class.
#include <cstdio>
#include <vector>

#include "csv.hpp"
#include "harness.hpp"

using namespace wasp;

int main(int argc, char** argv) {
  ArgParser args("fig06_scaling", "Figure 6: strong scaling");
  bench::add_common_args(args);
  args.add_int("max-threads", 8, "largest thread count in the sweep");
  args.parse(argc, argv);

  const int trials = static_cast<int>(args.get_int("trials"));
  std::vector<int> thread_counts;
  for (int t = 1; t <= args.get_int("max-threads"); t *= 2)
    thread_counts.push_back(t);

  // Four representative classes (the paper shows USA, MW, TW, FT).
  std::vector<suite::GraphClass> classes = {
      suite::GraphClass::kRoadUsa, suite::GraphClass::kMawi,
      suite::GraphClass::kTwitter, suite::GraphClass::kFriendster};
  if (!args.get_string("graphs").empty()) classes = bench::selected_classes(args);
  const auto algos = bench::figure5_algorithms();

  bench::CsvWriter csv(
      args.get_string("csv"),
      "experiment,graph,impl,threads,seconds,local_steals,remote_steals");
  std::printf("Figure 6: strong scaling (scale=%.2f, speedup vs 1-thread MQ)\n",
              args.get_double("scale"));

  for (const auto cls : classes) {
    const auto w = suite::make(cls, args.get_double("scale"),
                               static_cast<std::uint64_t>(args.get_int("seed")));
    std::printf("\n-- %s (%s): %u vertices, %llu edges --\n", suite::abbr(cls),
                suite::describe(cls), w.graph.num_vertices(),
                static_cast<unsigned long long>(w.graph.num_edges()));
    bench::print_cell("impl", 8);
    for (const int t : thread_counts) {
      char head[32];
      std::snprintf(head, sizeof(head), "t=%d", t);
      bench::print_cell(head, 18);
    }
    std::printf("\n");

    double mq_base = 0.0;
    std::vector<std::vector<double>> times(
        algos.size(), std::vector<double>(thread_counts.size()));
    for (std::size_t a = 0; a < algos.size(); ++a) {
      for (std::size_t ti = 0; ti < thread_counts.size(); ++ti) {
        Solver& solver = bench::make_solver(thread_counts[ti]);
        SsspOptions options;
        options.algo = algos[a];
        options.threads = thread_counts[ti];
        options.delta =
            args.get_flag("tune")
                ? bench::tune_delta(w.graph, w.source, options, {}, 1, solver)
                : bench::default_delta(algos[a], cls);
        const auto m =
            bench::measure(w.graph, w.source, options, trials, solver);
        times[a][ti] = m.best_seconds;
        // Steal locality from the best trial: on one-node hosts every steal
        // is local; on multi-node hosts the split shows how much work the
        // NUMA-aware victim order keeps on-node (docs/NUMA.md).
        csv.row("fig06", suite::abbr(cls), to_string(algos[a]),
                thread_counts[ti], times[a][ti],
                m.metrics.counter(obs::CounterId::kLocalSteals),
                m.metrics.counter(obs::CounterId::kRemoteSteals));
        if (algos[a] == Algorithm::kMqDijkstra && thread_counts[ti] == 1)
          mq_base = times[a][ti];
      }
    }
    for (std::size_t a = 0; a < algos.size(); ++a) {
      bench::print_cell(to_string(algos[a]), 8);
      for (std::size_t ti = 0; ti < thread_counts.size(); ++ti) {
        char cell[64];
        std::snprintf(cell, sizeof(cell), "%8s %5.2fx",
                      bench::format_time_ms(times[a][ti]).c_str(),
                      mq_base > 0 ? mq_base / times[a][ti] : 0.0);
        bench::print_cell(cell, 18);
      }
      std::printf("\n");
    }
  }
  std::printf("\nExpectation (paper): Wasp catches or passes GAP by ~16 "
              "threads and keeps scaling; GBBS does not scale on USA.\n");
  return 0;
}
