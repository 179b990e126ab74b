#include "graph/algorithms.hpp"

#include <algorithm>
#include <deque>
#include <numeric>

#include "support/random.hpp"

namespace wasp {

namespace {

/// Union-find with path halving and union by size.
class UnionFind {
 public:
  explicit UnionFind(VertexId n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), VertexId{0});
  }

  VertexId find(VertexId x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void unite(VertexId a, VertexId b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }

 private:
  std::vector<VertexId> parent_;
  std::vector<VertexId> size_;
};

}  // namespace

ComponentInfo connected_components(const Graph& g) {
  const VertexId n = g.num_vertices();
  UnionFind uf(n);
  for (VertexId u = 0; u < n; ++u)
    for (const WEdge& e : g.out_neighbors(u)) uf.unite(u, e.dst);

  ComponentInfo info;
  info.label.assign(n, kInvalidVertex);
  VertexId next_id = 0;
  std::vector<VertexId> root_to_id(n, kInvalidVertex);
  for (VertexId v = 0; v < n; ++v) {
    const VertexId root = uf.find(v);
    if (root_to_id[root] == kInvalidVertex) {
      root_to_id[root] = next_id++;
      info.size.push_back(0);
    }
    info.label[v] = root_to_id[root];
    ++info.size[root_to_id[root]];
  }
  info.largest = static_cast<VertexId>(
      std::max_element(info.size.begin(), info.size.end()) - info.size.begin());
  return info;
}

VertexId pick_source_in_largest_component(const Graph& g, std::uint64_t seed) {
  const ComponentInfo info = connected_components(g);
  const VertexId n = g.num_vertices();
  Xoshiro256 rng(seed);
  // Rejection-sample; the largest component covers most vertices on every
  // workload we generate, so this terminates almost immediately.
  for (int attempt = 0; attempt < 1 << 20; ++attempt) {
    const auto v = static_cast<VertexId>(rng.next_below(n));
    if (info.label[v] == info.largest && g.out_degree(v) > 0) return v;
  }
  // Degenerate fallback: linear scan.
  for (VertexId v = 0; v < n; ++v)
    if (info.label[v] == info.largest) return v;
  return 0;
}

std::vector<std::uint8_t> compute_leaf_bitmap(const Graph& g) {
  const VertexId n = g.num_vertices();
  std::vector<std::uint8_t> leaf(n, 0);
  for (VertexId v = 0; v < n; ++v) leaf[v] = g.is_leaf(v) ? 1 : 0;
  return leaf;
}

Graph transpose(const Graph& g) {
  const VertexId n = g.num_vertices();
  std::vector<EdgeIndex> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (VertexId u = 0; u < n; ++u)
    for (const WEdge& e : g.out_neighbors(u)) ++offsets[e.dst + 1];
  for (VertexId v = 0; v < n; ++v) offsets[v + 1] += offsets[v];
  AdjacencyVector adjacency(g.num_edges());
  std::vector<EdgeIndex> cursor(offsets.begin(), offsets.end() - 1);
  for (VertexId u = 0; u < n; ++u)
    for (const WEdge& e : g.out_neighbors(u))
      adjacency[cursor[e.dst]++] = WEdge{u, e.w};
  return Graph::from_csr(std::move(offsets), std::move(adjacency),
                         g.is_undirected());
}

std::vector<Distance> bfs_hops(const Graph& g, VertexId source) {
  std::vector<Distance> hops(g.num_vertices(), kInfDist);
  std::deque<VertexId> queue;
  hops[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    const VertexId u = queue.front();
    queue.pop_front();
    for (const WEdge& e : g.out_neighbors(u)) {
      if (hops[e.dst] == kInfDist) {
        hops[e.dst] = hops[u] + 1;
        queue.push_back(e.dst);
      }
    }
  }
  return hops;
}

DegreeStats degree_stats(const Graph& g) {
  DegreeStats stats;
  const VertexId n = g.num_vertices();
  if (n == 0) return stats;
  stats.min = g.out_degree(0);
  for (VertexId v = 0; v < n; ++v) {
    const std::uint32_t d = g.out_degree(v);
    stats.min = std::min(stats.min, d);
    stats.max = std::max(stats.max, d);
    if (d == 0) ++stats.num_isolated;
  }
  stats.avg = n == 0 ? 0.0
                     : static_cast<double>(g.num_edges()) / static_cast<double>(n);
  return stats;
}

}  // namespace wasp
