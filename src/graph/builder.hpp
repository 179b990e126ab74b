// GraphBuilder: the one front door for graph construction.
//
// Every way to make a graph goes through here: an edge list, CSR arrays, a
// gen:: generator's output (graph()), the io:: loaders (*_file/*_stream)
// and transpose_of(). Pick exactly one source, optionally set options, and
// finish with either
//
//   build()           -> Graph           (the immutable CSR)
//   build_versioned() -> VersionedGraph  (mutable, versioned, journaled)
//
// so dynamic graphs (graph/delta.hpp) get their version/overlay plumbing
// from one place, whatever the source.
//
// A builder is single-shot: build() consumes the staged source; reusing the
// object without staging a new source throws InvalidGraphError.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "support/types.hpp"

namespace wasp {

class VersionedGraph;

class GraphBuilder {
 public:
  GraphBuilder() = default;

  // --- sources (stage exactly one) ----------------------------------------

  /// Edge list → CSR: drops self-loops (the paper's edge set excludes
  /// u == v), sorts each adjacency list by (dst, w), and, when undirected(),
  /// stores every edge {u,v} as both (u,v) and (v,u) with the same weight
  /// (num_edges() then counts both directions). Throws std::out_of_range on
  /// an endpoint >= num_vertices.
  GraphBuilder& edges(VertexId num_vertices, std::vector<Edge> edges);

  /// Pre-built CSR arrays (validated by build(), exactly like
  /// Graph::from_csr).
  GraphBuilder& csr(std::vector<EdgeIndex> offsets, AdjacencyVector adjacency);

  /// Adopts an already-built Graph — the composition point for the gen::
  /// generators and any other producer: GraphBuilder().graph(gen::grid(...))
  /// .build_versioned().
  GraphBuilder& graph(Graph g);

  /// io:: loaders. The stream overloads keep a pointer to the stream, which
  /// must stay alive until build().
  GraphBuilder& edge_list_file(std::string path);
  GraphBuilder& edge_list_stream(std::istream& in);
  GraphBuilder& matrix_market_file(std::string path, double real_scale = 1.0);
  GraphBuilder& matrix_market_stream(std::istream& in, double real_scale = 1.0);
  GraphBuilder& binary_file(std::string path);
  GraphBuilder& binary_stream(std::istream& in);
  GraphBuilder& gap_wsg_file(std::string path);
  GraphBuilder& gap_wsg_stream(std::istream& in);

  /// Transpose of an existing graph (in-edges become out-edges; a copy when
  /// undirected), the one way to make one: the GAP .wsg writer and
  /// VersionedGraph::in_arcs() come here. `g` must stay alive until build().
  GraphBuilder& transpose_of(const Graph& g);

  // --- options -------------------------------------------------------------

  /// Marks the result undirected. Valid for the edges/csr/edge-list sources
  /// (which do not carry directedness themselves); build() throws for the
  /// self-describing sources (binary, wsg, matrix market, graph(),
  /// transpose).
  GraphBuilder& undirected(bool undirected = true);

  // --- terminals -----------------------------------------------------------

  /// Builds the immutable CSR graph. Throws InvalidGraphError when no source
  /// is staged, on option/source conflicts, and on whatever the underlying
  /// source validation throws. Consumes the staged source.
  [[nodiscard]] Graph build();

  /// build(), wrapped as a version-1 VersionedGraph.
  [[nodiscard]] VersionedGraph build_versioned();

 private:
  enum class Source {
    kNone,
    kEdges,
    kCsr,
    kGraph,
    kEdgeListFile,
    kEdgeListStream,
    kMatrixMarketFile,
    kMatrixMarketStream,
    kBinaryFile,
    kBinaryStream,
    kGapWsgFile,
    kGapWsgStream,
    kTranspose,
  };

  GraphBuilder& stage(Source s);
  void reset();

  Source source_ = Source::kNone;
  bool undirected_ = false;
  bool undirected_set_ = false;

  VertexId num_vertices_ = 0;
  std::vector<Edge> edges_;
  std::vector<EdgeIndex> offsets_;
  AdjacencyVector adjacency_;
  Graph graph_;
  std::string path_;
  std::istream* stream_ = nullptr;
  double real_scale_ = 1.0;
  const Graph* borrowed_ = nullptr;
};

}  // namespace wasp
