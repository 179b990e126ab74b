// Betweenness-centrality sampling — the application the paper's introduction
// cites (Brandes' algorithm): repeated SSSP is the inner loop, so a faster
// SSSP directly accelerates centrality analytics.
//
// Runs Brandes' dependency accumulation from k sampled sources: Wasp
// computes the distances in parallel; the shortest-path DAG counting and the
// backward dependency sweep run per source over the tight edges.
//
//   ./betweenness [--scale 13] [--threads 4] [--samples 8] [--top 10]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "sssp/solver.hpp"
#include "support/cli.hpp"
#include "support/random.hpp"
#include "support/timer.hpp"

namespace {

/// One Brandes iteration: given SSSP distances from `s`, accumulate the
/// pair-dependency of every vertex into `centrality`.
void accumulate_dependencies(const wasp::Graph& g, wasp::VertexId s,
                             const std::vector<wasp::Distance>& dist,
                             std::vector<double>& centrality) {
  const wasp::VertexId n = g.num_vertices();
  // Order reached vertices by distance: a topological order of the
  // shortest-path DAG (tight edges only go from smaller to larger distance;
  // zero-weight ties are broken by the stable sort on distance which is
  // sufficient for positively weighted graphs).
  std::vector<wasp::VertexId> order;
  order.reserve(n);
  for (wasp::VertexId v = 0; v < n; ++v)
    if (dist[v] != wasp::kInfDist) order.push_back(v);
  std::sort(order.begin(), order.end(),
            [&](wasp::VertexId a, wasp::VertexId b) { return dist[a] < dist[b]; });

  // Forward sweep: sigma[v] = number of shortest s-v paths.
  std::vector<double> sigma(n, 0.0);
  sigma[s] = 1.0;
  for (const wasp::VertexId u : order) {
    for (const wasp::WEdge& e : g.out_neighbors(u)) {
      if (dist[e.dst] != wasp::kInfDist && dist[u] + e.w == dist[e.dst])
        sigma[e.dst] += sigma[u];
    }
  }
  // Backward sweep: delta[u] += sigma[u]/sigma[v] * (1 + delta[v]).
  std::vector<double> delta(n, 0.0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const wasp::VertexId u = *it;
    for (const wasp::WEdge& e : g.out_neighbors(u)) {
      if (dist[e.dst] != wasp::kInfDist && dist[u] + e.w == dist[e.dst] &&
          sigma[e.dst] > 0.0) {
        delta[u] += sigma[u] / sigma[e.dst] * (1.0 + delta[e.dst]);
      }
    }
    if (u != s) centrality[u] += delta[u];
  }
}

}  // namespace

int main(int argc, char** argv) {
  wasp::ArgParser args("betweenness",
                       "sampled betweenness centrality via repeated SSSP");
  args.add_int("scale", 13, "log2 of the number of vertices");
  args.add_int("threads", 4, "worker threads for each SSSP");
  args.add_int("samples", 8, "number of sampled sources");
  args.add_int("top", 10, "how many top-central vertices to print");
  args.parse(argc, argv);

  const int scale = static_cast<int>(args.get_int("scale"));
  const wasp::Graph g = wasp::gen::rmat(
      scale, static_cast<wasp::EdgeIndex>(8) << scale, 0.57, 0.19, 0.19,
      wasp::WeightScheme::uniform(1, 64), 77, /*undirected=*/true);
  std::printf("graph: 2^%d vertices, %llu edges\n", scale,
              static_cast<unsigned long long>(g.num_edges()));

  wasp::SsspOptions options;
  options.algo = wasp::Algorithm::kWasp;
  options.threads = static_cast<int>(args.get_int("threads"));
  options.delta = 1;

  const auto samples = static_cast<int>(args.get_int("samples"));
  std::vector<double> centrality(g.num_vertices(), 0.0);
  wasp::Xoshiro256 rng(9);
  // The Brandes inner loop is exactly the repeat-query shape Solver is for:
  // one team + pooled distances across all sampled sources.
  wasp::Solver solver(options);
  wasp::Timer timer;
  double sssp_seconds = 0.0;
  for (int i = 0; i < samples; ++i) {
    const auto s = wasp::pick_source_in_largest_component(
        g, 100 + static_cast<std::uint64_t>(i));
    const wasp::SsspResult r = solver.solve(g, s);
    sssp_seconds += r.metrics.seconds;
    accumulate_dependencies(g, s, r.dist, centrality);
  }
  std::printf("%d samples in %.1f ms total (%.1f ms inside SSSP)\n", samples,
              timer.seconds() * 1e3, sssp_seconds * 1e3);

  std::vector<wasp::VertexId> ranked(g.num_vertices());
  for (wasp::VertexId v = 0; v < g.num_vertices(); ++v) ranked[v] = v;
  const auto top = static_cast<std::size_t>(args.get_int("top"));
  std::partial_sort(ranked.begin(), ranked.begin() + static_cast<std::ptrdiff_t>(top),
                    ranked.end(), [&](wasp::VertexId a, wasp::VertexId b) {
                      return centrality[a] > centrality[b];
                    });
  std::printf("\ntop-%zu betweenness (sampled, unnormalized):\n", top);
  for (std::size_t i = 0; i < top; ++i) {
    std::printf("  %8u  score %.1f  degree %u\n", ranked[i],
                centrality[ranked[i]], g.out_degree(ranked[i]));
  }
  return 0;
}
