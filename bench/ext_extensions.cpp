// Extension benchmark (beyond the paper's evaluation): the Stealing
// MultiQueue (related work [52]) vs the MultiQueue vs Wasp. SMQ brackets
// Wasp from the priority-queue side of the design space.
#include <cstdio>
#include <vector>

#include "harness.hpp"
#include "support/stats.hpp"

using namespace wasp;

int main(int argc, char** argv) {
  ArgParser args("ext_extensions",
                 "extension experiment: SMQ scheduler vs MQ vs Wasp");
  bench::add_common_args(args);
  args.parse(argc, argv);

  const int threads = static_cast<int>(args.get_int("threads"));
  const int trials = static_cast<int>(args.get_int("trials"));
  Solver& solver = bench::make_solver(threads);
  const auto classes = bench::selected_classes(args);

  std::printf("Stealing MultiQueue vs MultiQueue vs Wasp "
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

  return 0;
}
