// Appendix A raises an open question: "These results raise a broader
// question about evaluating SSSP performance when edge weights are absent
// and must be generated ... weight distribution also impacts results, with
// non-uniform distributions potentially altering conclusions."
//
// This extension experiment measures exactly that: the same graph structures
// under four weighting schemes (GAP uniform 1..255, narrow uniform 1..16,
// unit weights, truncated normal), for the main implementations.
#include <cstdio>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "harness.hpp"
#include "support/stats.hpp"

using namespace wasp;

namespace {

struct Scheme {
  const char* name;
  WeightScheme scheme;
};

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("ext_weight_schemes",
                 "Appendix-A follow-up: weight-scheme sensitivity");
  bench::add_common_args(args);
  args.parse(argc, argv);

  const int threads = static_cast<int>(args.get_int("threads"));
  const int trials = static_cast<int>(args.get_int("trials"));
  const double scale = args.get_double("scale");
  Solver& solver = bench::make_solver(threads);

  const std::vector<Scheme> schemes = {
      {"gap[1,255]", WeightScheme::gap()},
      {"narrow[1,16]", WeightScheme::uniform(1, 16)},
      {"unit", WeightScheme::unit()},
      {"tnormal", WeightScheme::truncated_normal(1.0, 0.5, 64.0)},
  };
  const std::vector<Algorithm> algos = {
      Algorithm::kDeltaStepping, Algorithm::kDeltaStar, Algorithm::kObim,
      Algorithm::kWasp};

  std::printf("Weight-scheme sensitivity (threads=%d): time per scheme, and "
              "Wasp's rank among the %zu impls\n", threads, algos.size());

  // Two structures: a skewed RMAT and a road grid.
  for (const auto* structure : {"rmat", "grid"}) {
    std::printf("\n-- structure: %s --\n", structure);
    bench::print_cell("impl", 8);
    for (const auto& s : schemes) bench::print_cell(s.name, 14);
    std::printf("\n");

    std::vector<std::vector<double>> times(algos.size(),
                                           std::vector<double>(schemes.size()));
    for (std::size_t si = 0; si < schemes.size(); ++si) {
      const Graph g =
          std::string(structure) == "rmat"
              ? gen::rmat(15 + static_cast<int>(scale), 1u << 19, 0.57, 0.19,
                          0.19, schemes[si].scheme, 7, true)
              : gen::grid(static_cast<std::uint32_t>(280 * scale + 40),
                          static_cast<std::uint32_t>(280 * scale + 40),
                          schemes[si].scheme, 7);
      const VertexId src = pick_source_in_largest_component(g, 3);
      const bool low_degree = std::string(structure) == "grid";
      for (std::size_t a = 0; a < algos.size(); ++a) {
        SsspOptions o;
        o.algo = algos[a];
        o.threads = threads;
        o.delta = bench::default_delta(
            algos[a], low_degree ? suite::GraphClass::kRoadUsa
                                 : suite::GraphClass::kTwitter);
        // Unit weights collapse the distance range: clamp delta.
        if (si == 2 && o.delta > 8) o.delta = low_degree ? 8 : 1;
        times[a][si] = bench::measure(g, src, o, trials, solver).best_seconds;
      }
    }
    for (std::size_t a = 0; a < algos.size(); ++a) {
      bench::print_cell(to_string(algos[a]), 8);
      for (std::size_t si = 0; si < schemes.size(); ++si)
        bench::print_cell(bench::format_time_ms(times[a][si]), 14);
      std::printf("\n");
    }
    // Does the winner change across schemes?
    std::printf("winner: ");
    for (std::size_t si = 0; si < schemes.size(); ++si) {
      std::size_t best = 0;
      for (std::size_t a = 1; a < algos.size(); ++a)
        if (times[a][si] < times[best][si]) best = a;
      std::printf("%s=%s  ", schemes[si].name, to_string(algos[best]));
    }
    std::printf("\n");
  }
  std::printf("\nObservation sought: whether the performance ordering is "
              "stable across weight schemes (the appendix's open question).\n");
  return 0;
}
