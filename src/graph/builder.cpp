#include "graph/builder.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "graph/algorithms.hpp"
#include "graph/compressed.hpp"
#include "graph/delta.hpp"
#include "graph/io.hpp"
#include "support/errors.hpp"

namespace wasp {

namespace {

/// Edge list → sorted CSR.
Graph build_from_edges(VertexId num_vertices, const std::vector<Edge>& edges,
                       bool undirected) {
  const std::size_t n = num_vertices;
  std::vector<EdgeIndex> offsets(n + 1, 0);

  // Pass 1: count out-degrees (both directions for undirected graphs).
  for (const Edge& e : edges) {
    if (e.src == e.dst) continue;  // drop self-loops
    if (e.src >= num_vertices || e.dst >= num_vertices)
      throw std::out_of_range("GraphBuilder: vertex id out of range");
    ++offsets[e.src + 1];
    if (undirected) ++offsets[e.dst + 1];
  }
  for (std::size_t v = 0; v < n; ++v) offsets[v + 1] += offsets[v];

  // Pass 2: scatter into the adjacency array.
  AdjacencyVector adjacency(offsets[n]);
  std::vector<EdgeIndex> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : edges) {
    if (e.src == e.dst) continue;
    adjacency[cursor[e.src]++] = WEdge{e.dst, e.w};
    if (undirected) adjacency[cursor[e.dst]++] = WEdge{e.src, e.w};
  }

  // Sort each adjacency list by destination: deterministic layout, better
  // locality, and required by the bidirectional-relaxation tests.
  for (std::size_t v = 0; v < n; ++v) {
    std::sort(adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v]),
              adjacency.begin() + static_cast<std::ptrdiff_t>(offsets[v + 1]),
              [](const WEdge& a, const WEdge& b) {
                return a.dst < b.dst || (a.dst == b.dst && a.w < b.w);
              });
  }

  return Graph::from_csr(std::move(offsets), std::move(adjacency), undirected);
}

}  // namespace

GraphBuilder& GraphBuilder::stage(Source s) {
  if (source_ != Source::kNone)
    throw InvalidGraphError(
        "GraphBuilder: a source is already staged (one source per build)");
  source_ = s;
  return *this;
}

void GraphBuilder::reset() { *this = GraphBuilder(); }

GraphBuilder& GraphBuilder::edges(VertexId num_vertices,
                                  std::vector<Edge> edges) {
  stage(Source::kEdges);
  num_vertices_ = num_vertices;
  edges_ = std::move(edges);
  return *this;
}

GraphBuilder& GraphBuilder::csr(std::vector<EdgeIndex> offsets,
                                AdjacencyVector adjacency) {
  stage(Source::kCsr);
  offsets_ = std::move(offsets);
  adjacency_ = std::move(adjacency);
  return *this;
}

GraphBuilder& GraphBuilder::graph(Graph g) {
  stage(Source::kGraph);
  graph_ = std::move(g);
  return *this;
}

GraphBuilder& GraphBuilder::edge_list_file(std::string path) {
  stage(Source::kEdgeListFile);
  path_ = std::move(path);
  return *this;
}

GraphBuilder& GraphBuilder::edge_list_stream(std::istream& in) {
  stage(Source::kEdgeListStream);
  stream_ = &in;
  return *this;
}

GraphBuilder& GraphBuilder::matrix_market_file(std::string path,
                                               double real_scale) {
  stage(Source::kMatrixMarketFile);
  path_ = std::move(path);
  real_scale_ = real_scale;
  return *this;
}

GraphBuilder& GraphBuilder::matrix_market_stream(std::istream& in,
                                                 double real_scale) {
  stage(Source::kMatrixMarketStream);
  stream_ = &in;
  real_scale_ = real_scale;
  return *this;
}

GraphBuilder& GraphBuilder::binary_file(std::string path) {
  stage(Source::kBinaryFile);
  path_ = std::move(path);
  return *this;
}

GraphBuilder& GraphBuilder::binary_stream(std::istream& in) {
  stage(Source::kBinaryStream);
  stream_ = &in;
  return *this;
}

GraphBuilder& GraphBuilder::gap_wsg_file(std::string path) {
  stage(Source::kGapWsgFile);
  path_ = std::move(path);
  return *this;
}

GraphBuilder& GraphBuilder::gap_wsg_stream(std::istream& in) {
  stage(Source::kGapWsgStream);
  stream_ = &in;
  return *this;
}

GraphBuilder& GraphBuilder::transpose_of(const Graph& g) {
  stage(Source::kTranspose);
  borrowed_ = &g;
  return *this;
}

GraphBuilder& GraphBuilder::decompress(const CompressedGraph& g) {
  stage(Source::kDecompress);
  compressed_ = &g;
  return *this;
}

GraphBuilder& GraphBuilder::undirected(bool undirected) {
  undirected_ = undirected;
  undirected_set_ = true;
  return *this;
}

Graph GraphBuilder::build() {
  const Source source = source_;
  const bool wants_direction = source == Source::kEdges ||
                               source == Source::kCsr ||
                               source == Source::kEdgeListFile ||
                               source == Source::kEdgeListStream;
  if (source == Source::kNone)
    throw InvalidGraphError("GraphBuilder::build: no source staged");
  if (undirected_set_ && !wants_direction)
    throw InvalidGraphError(
        "GraphBuilder::build: undirected() conflicts with a source that "
        "carries its own directedness");

  Graph result;
  switch (source) {
    case Source::kNone:
      break;  // unreachable: handled above
    case Source::kEdges:
      result = build_from_edges(num_vertices_, edges_, undirected_);
      break;
    case Source::kCsr:
      result = Graph::from_csr(std::move(offsets_), std::move(adjacency_),
                               undirected_);
      break;
    case Source::kGraph:
      result = std::move(graph_);
      break;
    case Source::kEdgeListFile:
      result = io::read_edge_list_file(path_, undirected_);
      break;
    case Source::kEdgeListStream:
      result = io::read_edge_list(*stream_, undirected_);
      break;
    case Source::kMatrixMarketFile:
      result = io::read_matrix_market_file(path_, real_scale_);
      break;
    case Source::kMatrixMarketStream:
      result = io::read_matrix_market(*stream_, real_scale_);
      break;
    case Source::kBinaryFile:
      result = io::read_binary_file(path_);
      break;
    case Source::kBinaryStream:
      result = io::read_binary(*stream_);
      break;
    case Source::kGapWsgFile:
      result = io::read_gap_wsg_file(path_);
      break;
    case Source::kGapWsgStream:
      result = io::read_gap_wsg(*stream_);
      break;
    case Source::kTranspose:
      result = transpose(*borrowed_);
      break;
    case Source::kDecompress:
      result = compressed_->decompress();
      break;
  }
  reset();
  return result;
}

VersionedGraph GraphBuilder::build_versioned() {
  return VersionedGraph(build());
}

}  // namespace wasp
