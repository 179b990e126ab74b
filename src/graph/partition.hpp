// NUMA-aware graph partitioning: contiguous vertex-range fragments of the
// global CSR, one (or more) per NUMA node.
//
// The partitioned Wasp engine (sssp/wasp.cpp, docs/NUMA.md) keeps
// the asynchronous deque protocol *inside* a fragment and exchanges boundary
// relaxations through batched remote queues (concurrent/remote_queue.hpp)
// instead of CAS traffic on remote cache lines. This module owns the static
// side of that design:
//
//  * splitting [0, n) into F contiguous vertex ranges balanced by edge count
//    (binary search over the global offset array), F defaulting to the
//    topology's node count;
//  * slicing each fragment's CSR rows into fragment-local storage — offsets
//    rebased to the fragment (offsets[0] == 0) with destination ids kept
//    GLOBAL, so a relaxation can route any edge by owner without a remap
//    table;
//  * inner/boundary classification: a local vertex is `boundary` when at
//    least one of its out-edges leaves the fragment's vertex range;
//  * first-touch placement: when a ThreadTeam is supplied, fragment f's
//    arrays are *filled* (hence paged in) by team worker f mod p. With
//    workers pinned round-robin across nodes this lands each fragment's
//    slice on (or near) the node that will run it; on a 1-node box it is a
//    deterministic no-op, which is what the synthetic-topology tests rely on.
//
// The split is deliberately contiguous (libgrape-lite's fragment model, GBBS'
// partition-friendly CSR): owner lookup is a binary search over F+1 range
// starts, and local<->global id translation is a subtraction.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "support/numa.hpp"

namespace wasp {

class ThreadTeam;

/// Immutable partition of a Graph into contiguous vertex-range fragments.
class GraphPartition {
 public:
  /// One fragment: the CSR rows of global vertices [begin, end), rebased so
  /// the fragment is self-contained for row lookup while edge destinations
  /// stay global.
  struct Fragment {
    int index = 0;       ///< Fragment id in [0, num_fragments()).
    int node = 0;        ///< NUMA node this fragment is assigned to.
    VertexId begin = 0;  ///< First global vertex id owned by this fragment.
    VertexId end = 0;    ///< One past the last owned global vertex id.

    /// Rebased row offsets: size (end - begin) + 1, offsets.front() == 0,
    /// offsets.back() == local edge count.
    std::vector<EdgeIndex> offsets;
    /// This fragment's slice of the interleaved {dst, w} records. Destination
    /// ids are GLOBAL vertex ids.
    AdjacencyVector adjacency;
    /// boundary[v - begin] != 0 iff v has an out-edge whose destination lies
    /// outside [begin, end).
    std::vector<std::uint8_t> boundary;
    /// Out-edges leaving the fragment's vertex range.
    EdgeIndex cut_edges = 0;

    [[nodiscard]] VertexId num_vertices() const { return end - begin; }
    [[nodiscard]] EdgeIndex num_edges() const {
      return offsets.empty() ? 0 : offsets.back();
    }
    [[nodiscard]] bool owns(VertexId global_v) const {
      return global_v >= begin && global_v < end;
    }
    [[nodiscard]] std::uint32_t out_degree(VertexId global_u) const {
      const VertexId lu = global_u - begin;
      return static_cast<std::uint32_t>(offsets[lu + 1] - offsets[lu]);
    }
    [[nodiscard]] EdgeIndex edge_offset(VertexId global_u) const {
      return offsets[global_u - begin];
    }
    [[nodiscard]] const WEdge* edge_data() const { return adjacency.data(); }
    [[nodiscard]] bool is_boundary(VertexId global_u) const {
      return boundary[global_u - begin] != 0;
    }
  };

  /// Builds a partition of `g` into `num_fragments` fragments (0 = one per
  /// NUMA node of `topo`; always clamped to [1, max(n, 1)]). Ranges are
  /// edge-balanced; fragment f is assigned to node f mod topo.num_nodes().
  /// When `team` is non-null, fragment arrays are filled in parallel by
  /// worker (f mod team size) for first-touch placement.
  static GraphPartition build(const Graph& g, const NumaTopology& topo,
                              int num_fragments = 0, ThreadTeam* team = nullptr);

  [[nodiscard]] int num_fragments() const {
    return static_cast<int>(fragments_.size());
  }
  [[nodiscard]] const Fragment& fragment(int f) const {
    return fragments_[static_cast<std::size_t>(f)];
  }
  [[nodiscard]] VertexId num_vertices() const { return num_vertices_; }

  /// Fragment owning global vertex `v` (binary search over range starts).
  [[nodiscard]] int owner_of(VertexId v) const;

  /// First global vertex of fragment f; starts()[num_fragments()] == n.
  [[nodiscard]] const std::vector<VertexId>& starts() const { return starts_; }

  /// Total out-edges crossing fragment boundaries, summed over fragments.
  [[nodiscard]] EdgeIndex num_cut_edges() const { return cut_edges_; }

 private:
  GraphPartition() = default;

  std::vector<Fragment> fragments_;
  std::vector<VertexId> starts_;  // size num_fragments() + 1
  VertexId num_vertices_ = 0;
  EdgeIndex cut_edges_ = 0;
};

}  // namespace wasp
