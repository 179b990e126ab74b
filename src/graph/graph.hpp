// Weighted graph in Compressed Sparse Row form.
//
// This is the storage every SSSP implementation in the repository operates
// on: 32-bit vertex ids and weights (matching the paper's methodology), a
// 64-bit offset array so graphs with more than 2^32 directed edges are
// representable, and an `undirected` flag — undirected graphs store each
// edge in both directions, exactly like the paper's datasets ("every edge is
// counted twice in undirected graphs").
#pragma once

#include <cassert>
#include <cstdint>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "support/types.hpp"

namespace wasp {

/// Minimal cache-line-aligned allocator for the CSR adjacency storage. The
/// relaxation loops stream through adjacency blocks and prefetch a fixed
/// number of records ahead (see support/prefetch.hpp); starting the array on
/// a line boundary makes "8 interleaved WEdge records per 64-byte line"
/// exact, so a block prefetch never straddles an extra line.
template <typename T>
struct CacheAlignedAllocator {
  using value_type = T;
  static_assert(kCacheLineSize >= alignof(T));

  CacheAlignedAllocator() = default;
  template <typename U>
  constexpr CacheAlignedAllocator(const CacheAlignedAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kCacheLineSize}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t{kCacheLineSize});
  }

  template <typename U>
  friend constexpr bool operator==(const CacheAlignedAllocator&,
                                   const CacheAlignedAllocator<U>&) noexcept {
    return true;
  }
};

/// A directed edge with an explicit source, used by builders and generators.
struct Edge {
  VertexId src;
  VertexId dst;
  Weight w;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// Destination + weight pair as stored in the CSR adjacency array. The
/// interleaved record is the unit of the memory-traffic contract: relaxing
/// an edge reads target and weight from the same (half) cache line, where
/// parallel targets[]/weights[] arrays would cost two lines per edge.
struct WEdge {
  VertexId dst;
  Weight w;

  friend bool operator==(const WEdge&, const WEdge&) = default;
};
static_assert(sizeof(WEdge) == 8, "WEdge must stay two packed 32-bit words");

/// The CSR adjacency container: interleaved {dst, w} records, cache-line
/// aligned. Builders (generators, I/O, decompression, transpose) produce one
/// of these and hand it to Graph::from_csr.
using AdjacencyVector = std::vector<WEdge, CacheAlignedAllocator<WEdge>>;

/// A process-unique object id, drawn from one monotonic counter shared by
/// every Graph stamp and VersionedGraph uid, so no two live or dead objects
/// ever carry the same value. A copy is a different object and draws a
/// fresh id; a move carries the id to the destination and re-draws the
/// moved-from object's, so an id always names exactly one object's content.
class UniqueId {
 public:
  UniqueId() : value_(next()) {}
  UniqueId(const UniqueId&) : value_(next()) {}
  UniqueId& operator=(const UniqueId&) {
    value_ = next();
    return *this;
  }
  UniqueId(UniqueId&& other) noexcept
      : value_(std::exchange(other.value_, next())) {}
  UniqueId& operator=(UniqueId&& other) noexcept {
    value_ = std::exchange(other.value_, next());
    return *this;
  }

  [[nodiscard]] std::uint64_t value() const { return value_; }
  /// Draws a new id for an object whose content changed in place.
  void renew() { value_ = next(); }

 private:
  static std::uint64_t next() noexcept;
  std::uint64_t value_;
};

/// Immutable CSR graph. Build one with GraphBuilder (graph/builder.hpp).
class Graph {
 public:
  Graph() = default;

  /// Builds directly from CSR arrays (used by I/O and transpose). Validation
  /// lives here; GraphBuilder's csr() source routes through it.
  static Graph from_csr(std::vector<EdgeIndex> offsets, AdjacencyVector adjacency,
                        bool undirected);

  [[nodiscard]] VertexId num_vertices() const {
    return offsets_.empty() ? 0 : static_cast<VertexId>(offsets_.size() - 1);
  }

  /// Number of stored (directed) edges.
  [[nodiscard]] EdgeIndex num_edges() const {
    return offsets_.empty() ? 0 : offsets_.back();
  }

  [[nodiscard]] bool is_undirected() const { return undirected_; }

  [[nodiscard]] std::uint32_t out_degree(VertexId u) const {
    assert(u < num_vertices());
    return static_cast<std::uint32_t>(offsets_[u + 1] - offsets_[u]);
  }

  /// Leaf test of Wasp's leaf pruning (paper §4.4): a vertex whose distance
  /// can never improve another vertex's — no out-edges or, in an undirected
  /// graph, one edge (back to whoever relaxed it). Reads the degree in
  /// place, so a solve pays nothing up front for pruning.
  [[nodiscard]] bool is_leaf(VertexId v) const {
    return out_degree(v) <= leaf_degree();
  }
  /// Largest out-degree is_leaf() accepts: 1 when undirected, else 0.
  [[nodiscard]] std::uint32_t leaf_degree() const { return undirected_ ? 1 : 0; }

  /// Process-unique content stamp (see UniqueId): drawn at construction,
  /// fresh on copy, carried by a move. VersionedGraph re-draws it whenever it
  /// patches the CSR in place, so equal stamps mean equal content and
  /// per-graph state built from a graph (the Solver's partition cache) can
  /// be keyed on it instead of on the object's address.
  [[nodiscard]] std::uint64_t stamp() const { return stamp_.value(); }

  /// Outgoing adjacency of u as a contiguous span.
  [[nodiscard]] std::span<const WEdge> out_neighbors(VertexId u) const {
    assert(u < num_vertices());
    return {adjacency_.data() + offsets_[u],
            static_cast<std::size_t>(offsets_[u + 1] - offsets_[u])};
  }

  /// A sub-range [begin, end) of u's adjacency — the unit of work created by
  /// Wasp's neighborhood decomposition (paper §4.4).
  [[nodiscard]] std::span<const WEdge> out_neighbors(VertexId u, std::uint32_t begin,
                                                     std::uint32_t end) const {
    assert(begin <= end && end <= out_degree(u));
    return {adjacency_.data() + offsets_[u] + begin,
            static_cast<std::size_t>(end - begin)};
  }

  /// Raw CSR arrays, for serialization.
  [[nodiscard]] const std::vector<EdgeIndex>& offsets() const { return offsets_; }
  [[nodiscard]] const AdjacencyVector& adjacency() const { return adjacency_; }

  /// Typed access to the interleaved edge records for loops that index the
  /// adjacency directly (the prefetched relaxation pipelines):
  /// edge_data()[edge_offset(u) + j] is u's j-th outgoing edge.
  [[nodiscard]] const WEdge* edge_data() const { return adjacency_.data(); }
  [[nodiscard]] EdgeIndex edge_offset(VertexId u) const {
    assert(u < num_vertices());
    return offsets_[u];
  }
  /// Raw offsets pointer; prefetching offsets_data() + v warms the degree
  /// lookup of a vertex about to be drained from a chunk.
  [[nodiscard]] const EdgeIndex* offsets_data() const { return offsets_.data(); }

  /// Largest edge weight in the graph (0 for an edgeless graph). Useful for
  /// choosing delta sweeps.
  [[nodiscard]] Weight max_weight() const;

 private:
  // VersionedGraph (graph/delta.hpp) patches edge weights in place — the one
  // sanctioned mutation of a built CSR; it owns the version/journal bookkeeping
  // that makes that safe, and renews stamp_ after each patch.
  friend class VersionedGraph;

  std::vector<EdgeIndex> offsets_;  // size n+1
  AdjacencyVector adjacency_;       // size num_edges()
  bool undirected_ = false;
  UniqueId stamp_;
};

}  // namespace wasp
