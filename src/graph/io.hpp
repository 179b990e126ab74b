// Graph serialization.
//
// Four formats, mirroring the paper artifact's conversion pipeline:
//  * text edge lists ("u v w" per line, '#'/'%' comments) — the exchange
//    format most public datasets ship in,
//  * Matrix Market coordinate files (the SuiteSparse format the artifact
//    converts from; read only),
//  * a binary CSR container ("WSPG" magic) — the fast load format,
//  * GAP serialized weighted graphs (.wsg) — the format the artifact
//    converts every dataset into.
//
// read_graph_file() is the one place that maps a format name or a file
// extension to a reader.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"

namespace wasp::io {

/// Writes "u v w" lines prefixed by a header comment.
void write_edge_list(const Graph& g, std::ostream& out);
void write_edge_list_file(const Graph& g, const std::string& path);

/// Reads an edge list. Lines starting with '#' or '%' are skipped; a missing
/// third column means weight 1. Vertex count is 1 + max id seen.
Graph read_edge_list(std::istream& in, bool undirected);
Graph read_edge_list_file(const std::string& path, bool undirected);

/// Reads a Matrix Market coordinate file (integer/real/pattern, general or
/// symmetric). Real weights are scaled by `real_scale` and rounded to >= 1,
/// the paper's treatment of the Moliere float weights.
Graph read_matrix_market(std::istream& in, double real_scale = 1.0);
Graph read_matrix_market_file(const std::string& path, double real_scale = 1.0);

/// Binary CSR container. Round-trips exactly.
void write_binary(const Graph& g, std::ostream& out);
void write_binary_file(const Graph& g, const std::string& path);
Graph read_binary(std::istream& in);
Graph read_binary_file(const std::string& path);

/// GAP Benchmarking Suite serialized weighted graph (.wsg) — the format the
/// paper's artifact converts every dataset into. Layout (all little-endian,
/// as written by GAP's builder): bool directed; int64 num_edges; int64
/// num_nodes; out_offsets int64[n+1]; out_neighbors {int32 dst, int32 w}[m];
/// and, for directed graphs, the same pair of arrays for in-edges.
void write_gap_wsg(const Graph& g, std::ostream& out);
void write_gap_wsg_file(const Graph& g, const std::string& path);
Graph read_gap_wsg(std::istream& in);
Graph read_gap_wsg_file(const std::string& path);

/// The format a path's extension implies: "mtx" for .mtx, "edgelist" for .el
/// and .txt, "wsg" for .wsg and .sg, and "binary" for anything else.
std::string format_from_extension(const std::string& path);

/// Reads `path` in `format` — "binary", "wsg", "edgelist" or "mtx", or
/// "auto" for format_from_extension(path). `undirected` applies to edge
/// lists only; the other formats carry their own directedness. Throws
/// GraphFormatError on an unknown format name.
Graph read_graph_file(const std::string& path, const std::string& format,
                      bool undirected = false);

}  // namespace wasp::io
