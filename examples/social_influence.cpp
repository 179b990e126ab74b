// Social-network influence scenario: skewed-degree graphs, the other
// workload family of the paper's evaluation (Twitter/Friendster/Orkut).
//
// Builds an RMAT social graph where edge weights model interaction cost,
// then uses repeated SSSP to (a) measure each candidate seed's "reach"
// within an influence budget and (b) rank seeds by closeness centrality.
//
//   ./social_influence [--scale 14] [--threads 4] [--seeds 4] [--budget 40]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "sssp/solver.hpp"
#include "support/cli.hpp"

int main(int argc, char** argv) {
  wasp::ArgParser args("social_influence",
                       "influence reach + closeness ranking via repeated SSSP");
  args.add_int("scale", 14, "log2 of the number of users");
  args.add_int("threads", 4, "worker threads");
  args.add_int("seeds", 4, "candidate seed users to evaluate");
  args.add_int("budget", 40, "influence budget (max path cost)");
  args.parse(argc, argv);

  const int scale = static_cast<int>(args.get_int("scale"));
  const auto edges = static_cast<wasp::EdgeIndex>(16) << scale;
  std::printf("building RMAT social network (2^%d users, ~%llu links)...\n",
              scale, static_cast<unsigned long long>(edges));
  const wasp::Graph network =
      wasp::gen::rmat(scale, edges, 0.57, 0.19, 0.19,
                      wasp::WeightScheme::uniform(1, 16), 2024, /*undirected=*/true);

  // Candidate seeds: the highest-degree users (hubs spread fastest).
  std::vector<wasp::VertexId> by_degree(network.num_vertices());
  for (wasp::VertexId v = 0; v < network.num_vertices(); ++v) by_degree[v] = v;
  std::sort(by_degree.begin(), by_degree.end(),
            [&](wasp::VertexId a, wasp::VertexId b) {
              return network.out_degree(a) > network.out_degree(b);
            });

  wasp::SsspOptions options;
  options.algo = wasp::Algorithm::kWasp;
  options.threads = static_cast<int>(args.get_int("threads"));
  options.delta = 1;  // skewed graphs: delta=1 is Wasp's sweet spot (§5)

  const auto budget = static_cast<wasp::Distance>(args.get_int("budget"));
  const auto num_seeds = static_cast<int>(args.get_int("seeds"));

  // One Solver for all seeds: repeat queries reuse the team, the topology
  // and the metrics registry instead of spawning and detecting per query.
  wasp::Solver solver(options);

  std::printf("\n%-10s %-8s %-12s %-14s %-10s\n", "seed", "degree",
              "reach<=budget", "closeness", "time(ms)");
  for (int s = 0; s < num_seeds; ++s) {
    const wasp::VertexId seed = by_degree[static_cast<std::size_t>(s)];
    const wasp::SsspResult r = solver.solve(network, seed);

    std::uint64_t reach = 0;
    double closeness_sum = 0.0;
    for (wasp::VertexId v = 0; v < network.num_vertices(); ++v) {
      if (v == seed || r.dist[v] == wasp::kInfDist) continue;
      if (r.dist[v] <= budget) ++reach;
      closeness_sum += r.dist[v];
    }
    const double closeness =
        closeness_sum > 0 ? static_cast<double>(network.num_vertices() - 1) /
                                closeness_sum
                          : 0.0;
    std::printf("%-10u %-8u %-12llu %-14.6f %-10.1f\n", seed,
                network.out_degree(seed), static_cast<unsigned long long>(reach),
                closeness, r.metrics.seconds * 1e3);
  }
  return 0;
}
