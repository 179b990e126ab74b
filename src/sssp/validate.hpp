// Result validation: compares a parallel run's distances against the
// sequential Dijkstra reference, or checks them against a certificate that
// needs no reference run (no relaxable edge remains; every finite distance
// is reached from the source over tight arcs).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "support/types.hpp"

namespace wasp {

/// Compares `got` against `expected` element-wise; on mismatch fills
/// `message` with the first offending vertex and returns false. `got` may
/// be any contiguous view, an Answer (sssp/answer.hpp) included.
bool distances_equal(const std::vector<Distance>& expected,
                     std::span<const Distance> got, std::string* message);
inline bool distances_equal(const std::vector<Distance>& expected,
                            const std::vector<Distance>& got,
                            std::string* message) {
  return distances_equal(expected, std::span<const Distance>(got), message);
}

/// Checks a complete certificate of exactness directly on the graph:
///  * dist[source] == 0,
///  * no edge (u, v) with dist[u] + w < dist[v] (no relaxable edge),
///  * every v with a finite distance is reached from the source over tight
///    edges (dist[u] + w == dist[v]), so its distance is a real path length.
/// Together these prove `dist` exact for non-negative weights, zero weights
/// included. O(|V| + |E|), one forward traversal and no transpose; does not
/// need a reference run. Fills `message` on failure.
bool validate_sssp(const Graph& g, VertexId source,
                   const std::vector<Distance>& dist, std::string* message);

}  // namespace wasp
