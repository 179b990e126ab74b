// Sequential graph utilities that back the SSSP implementations and the
// benchmark methodology:
//
//  * connected components + largest-component source selection (the paper
//    starts every trial from a random vertex inside the largest component),
//  * the leaf bitmap for Wasp's leaf-pruning optimization (§4.4),
//  * BFS hop distances and degree statistics (tests, dataset tables).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "support/types.hpp"

namespace wasp {

/// Component label per vertex plus component sizes. For directed graphs the
/// labelling is over the underlying undirected structure (weakly connected).
struct ComponentInfo {
  std::vector<VertexId> label;       // vertex -> component id (dense, 0-based)
  std::vector<VertexId> size;        // component id -> #vertices
  VertexId largest = 0;              // id of the largest component
};

/// Computes (weakly) connected components with union-find.
ComponentInfo connected_components(const Graph& g);

/// Picks a deterministic pseudo-random vertex inside the largest (weakly)
/// connected component — the paper's source-selection rule.
VertexId pick_source_in_largest_component(const Graph& g, std::uint64_t seed);
/// The same pick from components computed once (`info` is
/// connected_components(g)), for callers that draw many sources.
VertexId pick_source_in_largest_component(const Graph& g,
                                          const ComponentInfo& info,
                                          std::uint64_t seed);

/// Per-vertex "trivial shortest-path-tree leaf" bitmap (paper §4.4):
/// leaf[v] == Graph::is_leaf(v). The engines test the degree in place at
/// their relax sites; this materialized form serves tests and suite checks.
std::vector<std::uint8_t> compute_leaf_bitmap(const Graph& g);

/// Hop distances from `source` (kInfDist for unreachable vertices).
std::vector<Distance> bfs_hops(const Graph& g, VertexId source);

/// Summary degree statistics (dataset tables, test assertions).
struct DegreeStats {
  std::uint32_t min = 0;
  std::uint32_t max = 0;
  double avg = 0.0;
  VertexId num_isolated = 0;  // out-degree-0 vertices
};
DegreeStats degree_stats(const Graph& g);

}  // namespace wasp
