#include "graph/io.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "graph/builder.hpp"
#include "support/errors.hpp"

namespace wasp::io {

namespace {

constexpr char kMagic[4] = {'W', 'S', 'P', 'G'};
constexpr std::uint32_t kVersion = 1;

// Header fields claiming more payload than this many bytes are rejected as
// corrupt rather than attempted: a truncated or garbage header must fail
// with a precise message, not an allocation of petabytes.
constexpr std::uint64_t kMaxPayloadBytes = 1ULL << 44;  // 16 TiB

[[noreturn]] void parse_error(const std::string& what) {
  throw GraphFormatError("graph I/O: " + what);
}

/// Reads exactly `bytes` at logical stream position `offset`, reporting
/// expected-vs-actual byte counts on short reads.
void read_exact(std::istream& in, char* dst, std::uint64_t bytes,
                std::uint64_t offset, const char* what) {
  in.read(dst, static_cast<std::streamsize>(bytes));
  const std::uint64_t got =
      in ? bytes : static_cast<std::uint64_t>(std::max<std::streamsize>(
                       in.gcount(), 0));
  if (got != bytes) {
    std::ostringstream os;
    os << "truncated " << what << " at byte offset " << offset << ": expected "
       << bytes << " bytes, got " << got;
    parse_error(os.str());
  }
}

std::ifstream open_in(const std::string& path, std::ios::openmode mode) {
  std::ifstream in(path, mode);
  if (!in) parse_error("cannot open " + path);
  return in;
}

std::ofstream open_out(const std::string& path, std::ios::openmode mode) {
  std::ofstream out(path, mode);
  if (!out) parse_error("cannot open " + path + " for writing");
  return out;
}

}  // namespace

void write_edge_list(const Graph& g, std::ostream& out) {
  out << "# wasp edge list: " << g.num_vertices() << " vertices, "
      << g.num_edges() << " directed edges, "
      << (g.is_undirected() ? "undirected" : "directed") << "\n";
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (const WEdge& e : g.out_neighbors(u)) {
      // Undirected graphs store both directions; emit each edge once.
      if (g.is_undirected() && e.dst < u) continue;
      out << u << ' ' << e.dst << ' ' << e.w << '\n';
    }
  }
}

void write_edge_list_file(const Graph& g, const std::string& path) {
  auto out = open_out(path, std::ios::out);
  write_edge_list(g, out);
}

Graph read_edge_list(std::istream& in, bool undirected) {
  std::vector<Edge> edges;
  VertexId max_vertex = 0;
  std::string line;
  std::uint64_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    // istream happily wraps negative text into unsigned values; reject the
    // sign before it can alias a huge id or weight.
    if (line.find('-') != std::string::npos) {
      std::ostringstream os;
      os << "line " << lineno << ": negative value in edge line: " << line;
      parse_error(os.str());
    }
    std::istringstream ls(line);
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    std::uint64_t w = 1;
    if (!(ls >> u >> v)) {
      std::ostringstream os;
      os << "line " << lineno << ": malformed edge line: " << line;
      parse_error(os.str());
    }
    ls >> w;  // optional third column
    if (u > kInvalidVertex - 1 || v > kInvalidVertex - 1) {
      std::ostringstream os;
      os << "line " << lineno << ": vertex id exceeds 32 bits: " << line;
      parse_error(os.str());
    }
    if (w > std::numeric_limits<Weight>::max()) {
      std::ostringstream os;
      os << "line " << lineno << ": weight exceeds 32 bits: " << line;
      parse_error(os.str());
    }
    edges.push_back({static_cast<VertexId>(u), static_cast<VertexId>(v),
                     static_cast<Weight>(w)});
    max_vertex = std::max({max_vertex, static_cast<VertexId>(u),
                           static_cast<VertexId>(v)});
  }
  const VertexId n = edges.empty() ? 0 : max_vertex + 1;
  return GraphBuilder().edges(n, std::move(edges)).undirected(undirected).build();
}

Graph read_edge_list_file(const std::string& path, bool undirected) {
  auto in = open_in(path, std::ios::in);
  return read_edge_list(in, undirected);
}

Graph read_matrix_market(std::istream& in, double real_scale) {
  std::string line;
  if (!std::getline(in, line)) parse_error("empty Matrix Market stream");
  if (line.rfind("%%MatrixMarket", 0) != 0)
    parse_error("missing %%MatrixMarket banner");
  std::istringstream banner(line);
  std::string tag, object, format, field, symmetry;
  banner >> tag >> object >> format >> field >> symmetry;
  if (object != "matrix" || format != "coordinate")
    parse_error("only coordinate matrices are supported");
  const bool pattern = field == "pattern";
  const bool real = field == "real" || field == "double";
  const bool symmetric = symmetry == "symmetric";

  // Skip comments; first non-comment line is "rows cols nnz".
  do {
    if (!std::getline(in, line)) parse_error("truncated header");
  } while (!line.empty() && line[0] == '%');
  std::istringstream sizes(line);
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::uint64_t nnz = 0;
  if (!(sizes >> rows >> cols >> nnz)) parse_error("malformed size line");
  const std::uint64_t n64 = std::max(rows, cols);
  if (n64 > kInvalidVertex) parse_error("matrix too large for 32-bit ids");

  std::vector<Edge> edges;
  // Trust nnz only as a hint: a corrupt size line must not trigger a huge
  // allocation before the (truncation-checked) entry loop catches it.
  edges.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(nnz, 1u << 20)));
  for (std::uint64_t i = 0; i < nnz; ++i) {
    do {
      if (!std::getline(in, line)) parse_error("truncated entries");
    } while (line.empty() || line[0] == '%');
    std::istringstream es(line);
    std::uint64_t r = 0;
    std::uint64_t c = 0;
    if (!(es >> r >> c)) parse_error("malformed entry: " + line);
    if (r == 0 || c == 0) parse_error("Matrix Market indices are 1-based");
    if (r > rows || c > cols) {
      std::ostringstream os;
      os << "entry " << (i + 1) << " of " << nnz << " out of range (" << r
         << ", " << c << ") for a " << rows << "x" << cols
         << " matrix: " << line;
      parse_error(os.str());
    }
    Weight w = 1;
    if (!pattern) {
      double value = 1.0;
      if (!(es >> value)) parse_error("missing value: " + line);
      if (!real && value < 0.0)
        parse_error("negative weight (SSSP requires w >= 0): " + line);
      if (real) {
        const double scaled = std::round(std::abs(value) * real_scale);
        w = scaled < 1.0 ? Weight{1} : static_cast<Weight>(scaled);
      } else {
        const double a = std::abs(value);
        w = a < 1.0 ? Weight{1} : static_cast<Weight>(a);
      }
    }
    edges.push_back({static_cast<VertexId>(r - 1), static_cast<VertexId>(c - 1), w});
  }
  return GraphBuilder()
      .edges(static_cast<VertexId>(n64), std::move(edges))
      .undirected(symmetric)
      .build();
}

Graph read_matrix_market_file(const std::string& path, double real_scale) {
  auto in = open_in(path, std::ios::in);
  return read_matrix_market(in, real_scale);
}

void write_binary(const Graph& g, std::ostream& out) {
  out.write(kMagic, sizeof(kMagic));
  const std::uint32_t version = kVersion;
  const std::uint32_t undirected = g.is_undirected() ? 1 : 0;
  const std::uint64_t n = g.num_vertices();
  const std::uint64_t m = g.num_edges();
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.write(reinterpret_cast<const char*>(&undirected), sizeof(undirected));
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(reinterpret_cast<const char*>(&m), sizeof(m));
  out.write(reinterpret_cast<const char*>(g.offsets().data()),
            static_cast<std::streamsize>(g.offsets().size() * sizeof(EdgeIndex)));
  out.write(reinterpret_cast<const char*>(g.adjacency().data()),
            static_cast<std::streamsize>(g.adjacency().size() * sizeof(WEdge)));
  if (!out) parse_error("binary write failed");
}

void write_binary_file(const Graph& g, const std::string& path) {
  auto out = open_out(path, std::ios::out | std::ios::binary);
  write_binary(g, out);
}

Graph read_binary(std::istream& in) {
  char magic[4];
  read_exact(in, magic, sizeof(magic), 0, "magic");
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    parse_error("bad magic (not a wasp binary graph)");
  std::uint32_t version = 0;
  std::uint32_t undirected = 0;
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  read_exact(in, reinterpret_cast<char*>(&version), sizeof(version), 4,
             "version field");
  read_exact(in, reinterpret_cast<char*>(&undirected), sizeof(undirected), 8,
             "undirected flag");
  read_exact(in, reinterpret_cast<char*>(&n), sizeof(n), 12, "vertex count");
  read_exact(in, reinterpret_cast<char*>(&m), sizeof(m), 20, "edge count");
  if (version != kVersion) {
    std::ostringstream os;
    os << "unsupported version " << version << " (expected " << kVersion << ")";
    parse_error(os.str());
  }
  if (undirected > 1) parse_error("undirected flag must be 0 or 1");
  if (n > kInvalidVertex) {
    std::ostringstream os;
    os << "header claims " << n << " vertices, exceeding the 32-bit id limit "
       << kInvalidVertex;
    parse_error(os.str());
  }
  if ((n + 1) * sizeof(EdgeIndex) > kMaxPayloadBytes ||
      m * sizeof(WEdge) > kMaxPayloadBytes) {
    std::ostringstream os;
    os << "oversized header: n=" << n << ", m=" << m
       << " would require more than " << kMaxPayloadBytes
       << " payload bytes; header is corrupt";
    parse_error(os.str());
  }
  std::vector<EdgeIndex> offsets(n + 1);
  AdjacencyVector adjacency(m);
  const std::uint64_t offsets_bytes = offsets.size() * sizeof(EdgeIndex);
  read_exact(in, reinterpret_cast<char*>(offsets.data()), offsets_bytes, 28,
             "offset array");
  read_exact(in, reinterpret_cast<char*>(adjacency.data()),
             adjacency.size() * sizeof(WEdge), 28 + offsets_bytes,
             "adjacency array");
  return Graph::from_csr(std::move(offsets), std::move(adjacency),
                         undirected != 0);
}

Graph read_binary_file(const std::string& path) {
  auto in = open_in(path, std::ios::in | std::ios::binary);
  return read_binary(in);
}

void write_gap_wsg(const Graph& g, std::ostream& out) {
  const bool directed = !g.is_undirected();
  const std::int64_t m = static_cast<std::int64_t>(g.num_edges());
  const std::int64_t n = static_cast<std::int64_t>(g.num_vertices());
  out.write(reinterpret_cast<const char*>(&directed), sizeof(directed));
  out.write(reinterpret_cast<const char*>(&m), sizeof(m));
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));

  const auto write_csr = [&out](const Graph& graph) {
    // Offsets are int64 in GAP; ours already are.
    static_assert(sizeof(EdgeIndex) == sizeof(std::int64_t));
    out.write(reinterpret_cast<const char*>(graph.offsets().data()),
              static_cast<std::streamsize>(graph.offsets().size() *
                                           sizeof(EdgeIndex)));
    // WEdge is {int32 dst, int32 w} — GAP's NodeWeight layout.
    out.write(reinterpret_cast<const char*>(graph.adjacency().data()),
              static_cast<std::streamsize>(graph.adjacency().size() *
                                           sizeof(WEdge)));
  };
  write_csr(g);
  if (directed) write_csr(GraphBuilder().transpose_of(g).build());
  if (!out) parse_error("wsg write failed");
}

void write_gap_wsg_file(const Graph& g, const std::string& path) {
  auto out = open_out(path, std::ios::out | std::ios::binary);
  write_gap_wsg(g, out);
}

Graph read_gap_wsg(std::istream& in) {
  bool directed = false;
  std::int64_t m = 0;
  std::int64_t n = 0;
  read_exact(in, reinterpret_cast<char*>(&directed), sizeof(directed), 0,
             "wsg directed flag");
  read_exact(in, reinterpret_cast<char*>(&m), sizeof(m), 1, "wsg edge count");
  read_exact(in, reinterpret_cast<char*>(&n), sizeof(n), 9, "wsg vertex count");
  if (m < 0 || n < 0 || n > static_cast<std::int64_t>(kInvalidVertex)) {
    std::ostringstream os;
    os << "bad wsg header: m=" << m << ", n=" << n
       << " (negative or exceeding the 32-bit id limit)";
    parse_error(os.str());
  }
  if ((static_cast<std::uint64_t>(n) + 1) * sizeof(EdgeIndex) >
          kMaxPayloadBytes ||
      static_cast<std::uint64_t>(m) * sizeof(WEdge) > kMaxPayloadBytes) {
    std::ostringstream os;
    os << "oversized wsg header: n=" << n << ", m=" << m
       << " would require more than " << kMaxPayloadBytes
       << " payload bytes; header is corrupt";
    parse_error(os.str());
  }
  std::vector<EdgeIndex> offsets(static_cast<std::size_t>(n) + 1);
  AdjacencyVector adjacency(static_cast<std::size_t>(m));
  const std::uint64_t offsets_bytes = offsets.size() * sizeof(EdgeIndex);
  read_exact(in, reinterpret_cast<char*>(offsets.data()), offsets_bytes, 17,
             "wsg offset array");
  read_exact(in, reinterpret_cast<char*>(adjacency.data()),
             adjacency.size() * sizeof(WEdge), 17 + offsets_bytes,
             "wsg adjacency array");
  // Directed files carry the in-edge CSR next; our Graph only stores the
  // out view, so it is skipped.
  return Graph::from_csr(std::move(offsets), std::move(adjacency), !directed);
}

Graph read_gap_wsg_file(const std::string& path) {
  auto in = open_in(path, std::ios::in | std::ios::binary);
  return read_gap_wsg(in);
}

std::string format_from_extension(const std::string& path) {
  if (path.ends_with(".mtx")) return "mtx";
  if (path.ends_with(".el") || path.ends_with(".txt")) return "edgelist";
  if (path.ends_with(".wsg") || path.ends_with(".sg")) return "wsg";
  return "binary";
}

Graph read_graph_file(const std::string& path, const std::string& format,
                      bool undirected) {
  const std::string f =
      format == "auto" ? format_from_extension(path) : format;
  if (f == "binary") return read_binary_file(path);
  if (f == "wsg") return read_gap_wsg_file(path);
  if (f == "edgelist") return read_edge_list_file(path, undirected);
  if (f == "mtx") return read_matrix_market_file(path);
  parse_error("unknown format '" + format +
              "' (expected auto, binary, wsg, edgelist or mtx)");
}

}  // namespace wasp::io
