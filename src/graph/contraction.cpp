#include "graph/contraction.hpp"

#include "graph/builder.hpp"

#include <stdexcept>

namespace wasp {

PendantContraction PendantContraction::contract(const Graph& g, VertexId keep) {
  if (!g.is_undirected())
    throw std::invalid_argument(
        "PendantContraction: only undirected graphs have well-defined "
        "pendant trees");
  const VertexId n = g.num_vertices();
  PendantContraction pc;
  pc.in_core_.assign(n, 1);

  // Effective degrees shrink as neighbours are eliminated; a classic
  // peeling: seed the worklist with degree-1 vertices and cascade.
  // Multi-edges to the same neighbour count individually, so a vertex
  // joined to the core by two parallel edges is (conservatively) kept.
  std::vector<std::uint32_t> degree(n);
  for (VertexId v = 0; v < n; ++v) degree[v] = g.out_degree(v);

  std::vector<VertexId> worklist;
  for (VertexId v = 0; v < n; ++v)
    if (degree[v] == 1 && v != keep) worklist.push_back(v);

  while (!worklist.empty()) {
    const VertexId v = worklist.back();
    worklist.pop_back();
    if (pc.in_core_[v] == 0 || degree[v] != 1) continue;
    // Find the single surviving neighbour.
    VertexId parent = kInvalidVertex;
    Weight w = 0;
    for (const WEdge& e : g.out_neighbors(v)) {
      if (pc.in_core_[e.dst] != 0) {
        parent = e.dst;
        w = e.w;
        break;
      }
    }
    if (parent == kInvalidVertex) continue;  // defensive; cannot happen
    pc.in_core_[v] = 0;
    pc.order_.push_back(Eliminated{v, parent, w});
    if (--degree[parent] == 1 && parent != keep) worklist.push_back(parent);
  }

  // Rebuild the core CSR: edges with both endpoints surviving.
  std::vector<Edge> core_edges;
  core_edges.reserve(static_cast<std::size_t>(g.num_edges() / 2));
  for (VertexId u = 0; u < n; ++u) {
    if (pc.in_core_[u] == 0) continue;
    for (const WEdge& e : g.out_neighbors(u)) {
      if (e.dst > u || pc.in_core_[e.dst] == 0) continue;
      // emit each undirected edge once (u > dst side)
      core_edges.push_back(Edge{u, e.dst, e.w});
    }
  }
  // Handle u < dst pairs missed above: the loop emits when dst < u only, so
  // pairs with u < dst are emitted from the other endpoint. Self-pairs are
  // impossible (no self-loops).
  pc.core_ = GraphBuilder()
                 .edges(n, std::move(core_edges))
                 .undirected(true)
                 .build();
  return pc;
}

void PendantContraction::expand(std::vector<Distance>& dist) const {
  // Reverse elimination order: a vertex's parent was eliminated later (or is
  // in the core), so its distance is already final.
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    dist[it->v] = saturating_add(dist[it->parent], it->w);
  }
}

}  // namespace wasp
