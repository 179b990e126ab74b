// Byte-compressed CSR adjacency (GBBS-style varint delta encoding).
//
// The paper's motivation notes that shared-memory machines "through
// compression techniques accommodate most publicly available real-world
// graphs" (citing GBBS). This module provides that substrate: adjacency
// lists stored as zig-zag varint deltas (first destination relative to the
// source vertex, subsequent destinations as gaps — lists are sorted), with
// weights varint-encoded inline.
//
// Typical footprint on our generated suites is 40-60% of the raw 8-byte
// WEdge array. Iteration is via a callback to keep the decoder tight.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "support/types.hpp"

namespace wasp {

class CompressedGraph {
 public:
  /// Compresses an existing CSR graph (adjacency lists must be sorted by
  /// destination, which GraphBuilder's edges() source guarantees).
  static CompressedGraph compress(const Graph& g);

  [[nodiscard]] VertexId num_vertices() const {
    return offsets_.empty() ? 0 : static_cast<VertexId>(offsets_.size() - 1);
  }
  [[nodiscard]] EdgeIndex num_edges() const { return num_edges_; }
  [[nodiscard]] bool is_undirected() const { return undirected_; }

  [[nodiscard]] std::uint32_t out_degree(VertexId v) const {
    return degrees_[v];
  }

  /// Invokes fn(dst, weight) for every out-edge of v, in ascending dst.
  template <typename Fn>
  void for_each_out(VertexId v, Fn&& fn) const {
    const std::uint8_t* p = bytes_.data() + offsets_[v];
    const std::uint32_t degree = degrees_[v];
    std::uint64_t prev = 0;
    for (std::uint32_t i = 0; i < degree; ++i) {
      if (i == 0) {
        // First destination: zig-zag delta against the source id.
        const std::uint64_t zz = decode_varint(p);
        const std::int64_t delta = unzigzag(zz);
        prev = static_cast<std::uint64_t>(static_cast<std::int64_t>(v) + delta);
      } else {
        prev += decode_varint(p);  // sorted: gaps are non-negative
      }
      const auto w = static_cast<Weight>(decode_varint(p));
      fn(static_cast<VertexId>(prev), w);
    }
  }

  /// Reconstructs the uncompressed graph (exact round-trip).
  [[nodiscard]] Graph decompress() const;

  /// Compressed adjacency bytes (excludes the offset/degree arrays).
  [[nodiscard]] std::size_t adjacency_bytes() const { return bytes_.size(); }

  /// Total footprint including offsets and degrees.
  [[nodiscard]] std::size_t byte_size() const {
    return bytes_.size() + offsets_.size() * sizeof(std::uint64_t) +
           degrees_.size() * sizeof(std::uint32_t);
  }

  /// Raw adjacency bytes of the uncompressed equivalent, for ratio reports.
  [[nodiscard]] std::size_t uncompressed_bytes() const {
    return static_cast<std::size_t>(num_edges_) * sizeof(WEdge) +
           offsets_.size() * sizeof(EdgeIndex);
  }

 private:
  static std::uint64_t zigzag(std::int64_t x) {
    return (static_cast<std::uint64_t>(x) << 1) ^
           static_cast<std::uint64_t>(x >> 63);
  }
  static std::int64_t unzigzag(std::uint64_t z) {
    return static_cast<std::int64_t>(z >> 1) ^ -static_cast<std::int64_t>(z & 1);
  }
  static void encode_varint(std::uint64_t x, std::vector<std::uint8_t>& out) {
    while (x >= 0x80) {
      out.push_back(static_cast<std::uint8_t>(x) | 0x80);
      x >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(x));
  }
  static std::uint64_t decode_varint(const std::uint8_t*& p) {
    std::uint64_t x = 0;
    int shift = 0;
    for (;;) {
      const std::uint8_t byte = *p++;
      x |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return x;
      shift += 7;
    }
  }

  std::vector<std::uint64_t> offsets_;   // byte offset per vertex (+ end)
  std::vector<std::uint32_t> degrees_;
  std::vector<std::uint8_t> bytes_;
  EdgeIndex num_edges_ = 0;
  bool undirected_ = false;
};

/// Sequential Dijkstra directly over the compressed adjacency — demonstrates
/// that algorithms can consume the compressed form without decompressing.
std::vector<Distance> dijkstra_compressed(const CompressedGraph& g,
                                          VertexId source);

}  // namespace wasp
