#include "sssp/validate.hpp"

#include <cstdint>
#include <sstream>

namespace wasp {

bool distances_equal(const std::vector<Distance>& expected,
                     std::span<const Distance> got, std::string* message) {
  if (expected.size() != got.size()) {
    if (message != nullptr) {
      std::ostringstream os;
      os << "size mismatch: expected " << expected.size() << ", got "
         << got.size();
      *message = os.str();
    }
    return false;
  }
  for (std::size_t v = 0; v < expected.size(); ++v) {
    if (expected[v] != got[v]) {
      if (message != nullptr) {
        std::ostringstream os;
        os << "vertex " << v << ": expected " << expected[v] << ", got "
           << got[v];
        *message = os.str();
      }
      return false;
    }
  }
  return true;
}

bool validate_sssp(const Graph& g, VertexId source,
                   const std::vector<Distance>& dist, std::string* message) {
  const auto fail = [&](const std::string& why) {
    if (message != nullptr) *message = why;
    return false;
  };
  if (dist.size() != g.num_vertices()) return fail("distance array size mismatch");
  if (dist[source] != 0) return fail("dist[source] != 0");

  // No relaxable edge may remain.
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    if (dist[u] == kInfDist) continue;
    for (const WEdge& e : g.out_neighbors(u)) {
      if (saturating_add(dist[u], e.w) < dist[e.dst]) {
        std::ostringstream os;
        os << "relaxable edge (" << u << " -> " << e.dst << "): " << dist[u]
           << " + " << e.w << " < " << dist[e.dst];
        return fail(os.str());
      }
    }
  }

  // Every finite distance must be the length of a real path: one traversal
  // from the source over tight arcs (dist[u] + w == dist[v]) must reach it.
  // A reached vertex's distance is then a path length, so never below the
  // true distance, and no relaxable arc keeps every reachable vertex at or
  // below it. Unlike a tight in-arc per vertex, this also rejects a cycle of
  // zero-weight arcs that witnesses itself.
  std::vector<std::uint8_t> reached(g.num_vertices(), 0);
  std::vector<VertexId> stack{source};
  reached[source] = 1;
  while (!stack.empty()) {
    const VertexId u = stack.back();
    stack.pop_back();
    for (const WEdge& e : g.out_neighbors(u)) {
      if (reached[e.dst] == 0 && saturating_add(dist[u], e.w) == dist[e.dst]) {
        reached[e.dst] = 1;
        stack.push_back(e.dst);
      }
    }
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (dist[v] != kInfDist && reached[v] == 0) {
      std::ostringstream os;
      os << "vertex " << v << " has distance " << dist[v]
         << " but no in-edge on a tight path from the source achieves it";
      return fail(os.str());
    }
  }
  return true;
}

}  // namespace wasp
