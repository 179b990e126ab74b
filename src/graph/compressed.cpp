#include "graph/compressed.hpp"

#include "concurrent/dary_heap.hpp"

namespace wasp {

CompressedGraph CompressedGraph::compress(const Graph& g) {
  CompressedGraph cg;
  const VertexId n = g.num_vertices();
  cg.num_edges_ = g.num_edges();
  cg.undirected_ = g.is_undirected();
  cg.offsets_.resize(static_cast<std::size_t>(n) + 1);
  cg.degrees_.resize(n);
  cg.bytes_.reserve(static_cast<std::size_t>(g.num_edges()) * 3);

  for (VertexId v = 0; v < n; ++v) {
    cg.offsets_[v] = cg.bytes_.size();
    cg.degrees_[v] = g.out_degree(v);
    std::uint64_t prev = 0;
    bool first = true;
    for (const WEdge& e : g.out_neighbors(v)) {
      if (first) {
        encode_varint(zigzag(static_cast<std::int64_t>(e.dst) -
                             static_cast<std::int64_t>(v)),
                      cg.bytes_);
        first = false;
      } else {
        encode_varint(e.dst - prev, cg.bytes_);
      }
      prev = e.dst;
      encode_varint(e.w, cg.bytes_);
    }
  }
  cg.offsets_[n] = cg.bytes_.size();
  return cg;
}

Graph CompressedGraph::decompress() const {
  const VertexId n = num_vertices();
  std::vector<EdgeIndex> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (VertexId v = 0; v < n; ++v) offsets[v + 1] = offsets[v] + degrees_[v];
  AdjacencyVector adjacency(num_edges_);
  for (VertexId v = 0; v < n; ++v) {
    EdgeIndex cursor = offsets[v];
    for_each_out(v, [&](VertexId dst, Weight w) {
      adjacency[cursor++] = WEdge{dst, w};
    });
  }
  return Graph::from_csr(std::move(offsets), std::move(adjacency), undirected_);
}

std::vector<Distance> dijkstra_compressed(const CompressedGraph& g,
                                          VertexId source) {
  std::vector<Distance> dist(g.num_vertices(), kInfDist);
  DaryHeap<Distance, VertexId, 4> heap;
  dist[source] = 0;
  heap.push(0, source);
  while (!heap.empty()) {
    const auto [d, u] = heap.pop();
    if (d != dist[u]) continue;
    g.for_each_out(u, [&](VertexId v, Weight w) {
      const Distance nd = saturating_add(d, w);
      if (nd < dist[v]) {
        dist[v] = nd;
        heap.push(nd, v);
      }
    });
  }
  return dist;
}

}  // namespace wasp
