// Figure 8: the priority-drift analysis — number of edge relaxations
// (normalized to Dijkstra's, the theoretical minimum) and execution time as
// a function of delta, for GAP, Galois/OBIM, and Wasp.
//
// Paper expectation: relaxations grow with delta everywhere; Galois performs
// more relaxations than Wasp at equal delta; GAP is conservative in
// relaxations but needs large deltas for performance; on skewed graphs Wasp
// achieves the relaxation minimum at delta=1, on road graphs small deltas
// hurt everyone.
#include <cstdio>
#include <vector>

#include "csv.hpp"
#include "harness.hpp"
#include "sssp/dijkstra.hpp"

using namespace wasp;

int main(int argc, char** argv) {
  ArgParser args("fig08_priority_drift",
                 "Figure 8: relaxations + time vs delta");
  bench::add_common_args(args);
  args.parse(argc, argv);

  const int threads = static_cast<int>(args.get_int("threads"));
  const int trials = static_cast<int>(args.get_int("trials"));
  Solver& solver = bench::make_solver(threads);
  const auto classes = bench::selected_classes(args);
  const std::vector<Algorithm> algos = {
      Algorithm::kDeltaStepping, Algorithm::kObim, Algorithm::kWasp};

  bench::CsvWriter csv(args.get_string("csv"),
                       "experiment,graph,impl,delta,seconds,relaxations");
  std::printf("Figure 8: priority drift — relaxations (normalized to "
              "Dijkstra) and time vs delta (threads=%d)\n", threads);

  for (const auto cls : classes) {
    auto w = suite::make(cls, args.get_double("scale"),
                         static_cast<std::uint64_t>(args.get_int("seed")));
    const auto reference = dijkstra(w.graph, w.source);
    const std::uint64_t reference_relax =
        reference.metrics.counter(obs::CounterId::kRelaxations);
    const double base_relax =
        static_cast<double>(std::max<std::uint64_t>(reference_relax, 1));

    std::printf("\n-- %s (Dijkstra: %llu relaxations, %s) --\n",
                suite::abbr(cls),
                static_cast<unsigned long long>(reference_relax),
                bench::format_time_ms(reference.metrics.seconds).c_str());
    bench::print_cell("delta", 8);
    for (const auto a : algos) {
      char head[48];
      std::snprintf(head, sizeof(head), "%s relax/time", to_string(a));
      bench::print_cell(head, 22);
    }
    std::printf("\n");

    for (const Weight delta : bench::delta_candidates(w.graph)) {
      bench::print_cell(std::to_string(delta), 8);
      for (const auto algo : algos) {
        SsspOptions options;
        options.algo = algo;
        options.threads = threads;
        options.delta = delta;
        // Disable BR so Wasp's relaxation count is comparable (the pull
        // step adds relaxations of a different nature).
        options.wasp.bidirectional_relaxation = false;
        const bench::Measurement m =
            bench::measure(w.graph, w.source, options, trials, solver);
        // Relaxation counts come from the best trial's metrics snapshot.
        const std::uint64_t relaxations =
            m.metrics.counter(obs::CounterId::kRelaxations);
        csv.row("fig08", suite::abbr(cls), to_string(algo), delta,
                m.best_seconds, relaxations);
        char cell[64];
        std::snprintf(cell, sizeof(cell), "%5.2f %10s",
                      static_cast<double>(relaxations) / base_relax,
                      bench::format_time_ms(m.best_seconds).c_str());
        bench::print_cell(cell, 22);
        std::fflush(stdout);
      }
      std::printf("\n");
    }
  }
  std::printf("\nExpectation (paper): normalized relaxations rise with delta; "
              "Galois > Wasp at equal delta;\nWasp hits ~1.0 at delta=1 on "
              "skewed classes.\n");
  return 0;
}
