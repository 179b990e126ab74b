// Quickstart: build a small weighted graph, run Wasp, print distances.
//
//   ./quickstart
//
// Demonstrates the two core public entry points: GraphBuilder for
// construction and wasp::Solver for queries (the Solver owns the thread
// team and the pooled distance array, so repeat queries skip the team
// spawn and the allocation).
#include <cstdio>

#include "graph/builder.hpp"
#include "sssp/solver.hpp"

int main() {
  // The sample graph of the paper's Figure 1: a small weighted digraph.
  //        1        3
  //   0 ------> 1 -----> 3
  //   |         |        ^
  //   | 4       | 2      | 1
  //   v         v        |
  //   2 ------> 4 -------+
  //        5        (4,3,1)
  const wasp::Graph graph =
      wasp::GraphBuilder()
          .edges(5, {{0, 1, 1}, {0, 2, 4}, {1, 3, 3}, {1, 4, 2}, {2, 4, 5},
                     {4, 3, 1}})
          .undirected(false)
          .build();

  wasp::SsspOptions options;
  options.algo = wasp::Algorithm::kWasp;
  options.threads = 4;
  options.delta = 1;  // fine-grained priorities: Wasp's recommended default

  wasp::Solver solver(options);
  const wasp::SsspResult result = solver.solve(graph, /*source=*/0);

  std::printf("shortest distances from vertex 0:\n");
  for (wasp::VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (result.dist[v] == wasp::kInfDist) {
      std::printf("  %u: unreachable\n", v);
    } else {
      std::printf("  %u: %u\n", v, result.dist[v]);
    }
  }
  std::printf("edge relaxations: %llu, wall time: %.3f ms\n",
              static_cast<unsigned long long>(result.metrics.counter(
                  wasp::obs::CounterId::kRelaxations)),
              result.metrics.seconds * 1e3);
  return 0;
}
