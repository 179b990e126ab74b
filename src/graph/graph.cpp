#include "graph/graph.hpp"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <stdexcept>

#include "support/errors.hpp"

namespace wasp {

std::uint64_t UniqueId::next() noexcept {
  // lint:allow(raw-atomic): pure id generator outside the verify-modelled
  // engine; no data is published through it.
  static std::atomic<std::uint64_t> counter{0};
  // relaxed: uniqueness only — each caller needs a distinct value, nothing
  // else is ordered against the increment.
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

Graph Graph::from_csr(std::vector<EdgeIndex> offsets, AdjacencyVector adjacency,
                      bool undirected) {
  if (offsets.empty() || offsets.front() != 0 || offsets.back() != adjacency.size())
    throw InvalidGraphError("Graph::from_csr: malformed offsets");
  if (offsets.size() - 1 > static_cast<std::size_t>(kInvalidVertex))
    throw InvalidGraphError("Graph::from_csr: too many vertices for 32-bit ids");
  const std::size_t n = offsets.size() - 1;
  for (std::size_t v = 0; v < n; ++v) {
    if (offsets[v] > offsets[v + 1]) {
      std::ostringstream os;
      os << "Graph::from_csr: offsets decrease at vertex " << v << " ("
         << offsets[v] << " > " << offsets[v + 1] << ")";
      throw InvalidGraphError(os.str());
    }
  }
  for (std::size_t i = 0; i < adjacency.size(); ++i) {
    if (adjacency[i].dst >= n) {
      std::ostringstream os;
      os << "Graph::from_csr: adjacency[" << i << "].dst = "
         << adjacency[i].dst << " out of range [0, " << n << ")";
      throw InvalidGraphError(os.str());
    }
  }
  Graph g;
  g.offsets_ = std::move(offsets);
  g.adjacency_ = std::move(adjacency);
  g.undirected_ = undirected;
  return g;
}

Weight Graph::max_weight() const {
  Weight w = 0;
  for (const WEdge& e : adjacency_) w = std::max(w, e.w);
  return w;
}

}  // namespace wasp
