#include "sssp/validate.hpp"

#include <sstream>

#include "graph/algorithms.hpp"

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

  // Every finite distance must be witnessed by an in-edge (checked via the
  // transpose so directed graphs are handled).
  const Graph gt = transpose(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v == source || dist[v] == kInfDist) continue;
    bool witnessed = false;
    for (const WEdge& e : gt.out_neighbors(v)) {
      if (dist[e.dst] != kInfDist && saturating_add(dist[e.dst], e.w) == dist[v]) {
        witnessed = true;
        break;
      }
    }
    if (!witnessed) {
      std::ostringstream os;
      os << "vertex " << v << " has distance " << dist[v]
         << " but no in-edge achieves it";
      return fail(os.str());
    }
  }
  return true;
}

}  // namespace wasp
