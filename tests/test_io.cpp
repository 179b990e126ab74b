// Round-trip and format tests for graph I/O (edge list, Matrix Market,
// binary CSR, GAP .wsg) and for read_graph_file's format dispatch.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "support/errors.hpp"

namespace wasp {
namespace {

void expect_same_graph(const Graph& a, const Graph& b) {
  EXPECT_EQ(a.num_vertices(), b.num_vertices());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.is_undirected(), b.is_undirected());
  EXPECT_EQ(a.offsets(), b.offsets());
  EXPECT_EQ(a.adjacency(), b.adjacency());
}

TEST(EdgeListIo, RoundTripsDirected) {
  const Graph g = gen::rmat(8, 500, 0.57, 0.19, 0.19, WeightScheme::gap(), 1,
                            /*undirected=*/false);
  std::stringstream ss;
  io::write_edge_list(g, ss);
  const Graph h = io::read_edge_list(ss, /*undirected=*/false);
  // The reader determines n from max id, which can be smaller than the
  // generator's 2^8 if trailing vertices are isolated; compare edges only.
  EXPECT_EQ(h.num_edges(), g.num_edges());
  for (VertexId u = 0; u < h.num_vertices(); ++u) {
    ASSERT_EQ(h.out_degree(u), g.out_degree(u));
    const auto ga = g.out_neighbors(u);
    const auto ha = h.out_neighbors(u);
    for (std::size_t i = 0; i < ga.size(); ++i) EXPECT_EQ(ga[i], ha[i]);
  }
}

TEST(EdgeListIo, RoundTripsUndirectedWithoutDuplicates) {
  const Graph g = gen::grid(6, 7, WeightScheme::gap(), 2);
  std::stringstream ss;
  io::write_edge_list(g, ss);
  const Graph h = io::read_edge_list(ss, /*undirected=*/true);
  expect_same_graph(g, h);
}

TEST(EdgeListIo, DefaultsMissingWeightToOne) {
  std::stringstream ss("0 1\n1 2 5\n");
  const Graph g = io::read_edge_list(ss, false);
  EXPECT_EQ(g.out_neighbors(0)[0].w, 1u);
  EXPECT_EQ(g.out_neighbors(1)[0].w, 5u);
}

TEST(EdgeListIo, SkipsComments) {
  std::stringstream ss("# a comment\n% another\n0 1 3\n");
  const Graph g = io::read_edge_list(ss, false);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(EdgeListIo, RejectsMalformedLine) {
  std::stringstream ss("0 x 3\n");
  EXPECT_THROW(io::read_edge_list(ss, false), std::runtime_error);
}

TEST(MatrixMarket, ReadsIntegerGeneral) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate integer general\n"
      "% comment\n"
      "3 3 2\n"
      "1 2 7\n"
      "3 1 4\n");
  const Graph g = io::read_matrix_market(ss);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_FALSE(g.is_undirected());
  EXPECT_EQ(g.out_neighbors(0)[0], (WEdge{1, 7}));
  EXPECT_EQ(g.out_neighbors(2)[0], (WEdge{0, 4}));
}

TEST(MatrixMarket, SymmetricBecomesUndirected) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "3 3 2\n"
      "2 1\n"
      "3 2\n");
  const Graph g = io::read_matrix_market(ss);
  EXPECT_TRUE(g.is_undirected());
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.out_neighbors(0)[0].w, 1u);  // pattern weights default to 1
}

TEST(MatrixMarket, RealWeightsScaledLikeMoliere) {
  // The paper scales Moliere's float weights to integers; reader applies
  // `real_scale` and clamps to >= 1.
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 2\n"
      "1 2 0.0123\n"
      "2 1 0.0000001\n");
  const Graph g = io::read_matrix_market(ss, 1e4);
  EXPECT_EQ(g.out_neighbors(0)[0].w, 123u);
  EXPECT_EQ(g.out_neighbors(1)[0].w, 1u);  // clamped
}

TEST(MatrixMarket, RejectsBadBanner) {
  std::stringstream ss("garbage\n1 1 0\n");
  EXPECT_THROW(io::read_matrix_market(ss), std::runtime_error);
}

TEST(BinaryIo, RoundTripsExactly) {
  const Graph g = gen::rmat(9, 2000, 0.6, 0.15, 0.15, WeightScheme::gap(), 3,
                            /*undirected=*/true);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  io::write_binary(g, ss);
  const Graph h = io::read_binary(ss);
  expect_same_graph(g, h);
}

TEST(BinaryIo, RejectsBadMagic) {
  std::stringstream ss("not a graph", std::ios::in | std::ios::binary);
  EXPECT_THROW(io::read_binary(ss), std::runtime_error);
}

TEST(GapWsgIo, RoundTripsUndirected) {
  const Graph g = gen::grid(8, 9, WeightScheme::gap(), 6);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  io::write_gap_wsg(g, ss);
  const Graph h = io::read_gap_wsg(ss);
  expect_same_graph(g, h);
}

TEST(GapWsgIo, RoundTripsDirectedSkippingInverse) {
  const Graph g = gen::rmat(8, 1000, 0.6, 0.15, 0.15, WeightScheme::gap(), 7,
                            /*undirected=*/false);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  io::write_gap_wsg(g, ss);
  const Graph h = io::read_gap_wsg(ss);
  expect_same_graph(g, h);  // inverse arrays are written but skipped on read
}

TEST(GapWsgIo, HeaderLayoutMatchesGap) {
  // First 17 bytes: bool directed, int64 m, int64 n.
  const Graph g = GraphBuilder().edges(3, {{0, 1, 5}, {1, 2, 7}}).build();
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  io::write_gap_wsg(g, ss);
  const std::string bytes = ss.str();
  ASSERT_GE(bytes.size(), 17u);
  EXPECT_EQ(bytes[0], 1);  // directed
  std::int64_t m = 0;
  std::int64_t n = 0;
  std::memcpy(&m, bytes.data() + 1, sizeof(m));
  std::memcpy(&n, bytes.data() + 9, sizeof(n));
  EXPECT_EQ(m, 2);
  EXPECT_EQ(n, 3);
}

TEST(GapWsgIo, RejectsGarbage) {
  std::stringstream ss("xx", std::ios::in | std::ios::binary);
  EXPECT_THROW(io::read_gap_wsg(ss), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Corrupt-input hardening: every rejection must carry a precise message
// (byte offset / line number, expected vs actual) and a typed error.
// ---------------------------------------------------------------------------

/// Serialized bytes of a small valid binary graph, for corruption.
std::string valid_binary_bytes() {
  const Graph g = GraphBuilder()
      .edges(4, {{0, 1, 2}, {1, 2, 3}, {2, 3, 4}})
      .build();
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  io::write_binary(g, ss);
  return ss.str();
}

std::string throw_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

TEST(BinaryIo, TruncatedHeaderReportsOffsetAndCounts) {
  const std::string bytes = valid_binary_bytes();
  // Cut inside the vertex-count field (bytes 12..20).
  std::stringstream ss(bytes.substr(0, 14), std::ios::in | std::ios::binary);
  const std::string msg = throw_message([&] { io::read_binary(ss); });
  EXPECT_NE(msg.find("truncated vertex count"), std::string::npos) << msg;
  EXPECT_NE(msg.find("byte offset 12"), std::string::npos) << msg;
  EXPECT_NE(msg.find("expected 8 bytes, got 2"), std::string::npos) << msg;
}

TEST(BinaryIo, TruncatedPayloadReportsArrayAndOffset) {
  const std::string bytes = valid_binary_bytes();
  // Keep the 28-byte header plus half the offset array.
  std::stringstream ss(bytes.substr(0, 28 + 12), std::ios::in | std::ios::binary);
  const std::string msg = throw_message([&] { io::read_binary(ss); });
  EXPECT_NE(msg.find("truncated offset array"), std::string::npos) << msg;
  EXPECT_NE(msg.find("byte offset 28"), std::string::npos) << msg;
}

TEST(BinaryIo, RejectsUnsupportedVersion) {
  std::string bytes = valid_binary_bytes();
  bytes[4] = 9;  // version field (little-endian u32 at offset 4)
  std::stringstream ss(bytes, std::ios::in | std::ios::binary);
  const std::string msg = throw_message([&] { io::read_binary(ss); });
  EXPECT_NE(msg.find("unsupported version 9 (expected 1)"), std::string::npos)
      << msg;
}

TEST(BinaryIo, RejectsBadUndirectedFlag) {
  std::string bytes = valid_binary_bytes();
  bytes[8] = 7;  // undirected flag at offset 8
  std::stringstream ss(bytes, std::ios::in | std::ios::binary);
  EXPECT_THROW(io::read_binary(ss), GraphFormatError);
}

TEST(BinaryIo, RejectsOversizedHeaderBeforeAllocating) {
  std::string bytes = valid_binary_bytes();
  // Edge count (u64 at offset 20) claiming ~2^56 edges: must be rejected by
  // the payload cap, not by an allocation attempt.
  const std::uint64_t huge = 1ULL << 56;
  std::memcpy(&bytes[20], &huge, sizeof(huge));
  std::stringstream ss(bytes, std::ios::in | std::ios::binary);
  const std::string msg = throw_message([&] { io::read_binary(ss); });
  EXPECT_NE(msg.find("oversized header"), std::string::npos) << msg;
  EXPECT_NE(msg.find("header is corrupt"), std::string::npos) << msg;
}

TEST(BinaryIo, RejectsVertexCountBeyond32BitIds) {
  std::string bytes = valid_binary_bytes();
  const std::uint64_t huge = 1ULL << 40;
  std::memcpy(&bytes[12], &huge, sizeof(huge));  // vertex count at offset 12
  std::stringstream ss(bytes, std::ios::in | std::ios::binary);
  const std::string msg = throw_message([&] { io::read_binary(ss); });
  EXPECT_NE(msg.find("32-bit id limit"), std::string::npos) << msg;
}

TEST(BinaryIo, TypedErrorIsAlsoRuntimeError) {
  std::stringstream ss("WXYZ", std::ios::in | std::ios::binary);
  EXPECT_THROW(io::read_binary(ss), GraphFormatError);
  std::stringstream ss2("WXYZ", std::ios::in | std::ios::binary);
  EXPECT_THROW(io::read_binary(ss2), std::runtime_error);  // base class
}

TEST(GapWsgIo, TruncatedPayloadReportsArray) {
  const Graph g = GraphBuilder().edges(3, {{0, 1, 5}, {1, 2, 7}}).build();
  std::stringstream full(std::ios::in | std::ios::out | std::ios::binary);
  io::write_gap_wsg(g, full);
  const std::string bytes = full.str();
  std::stringstream ss(bytes.substr(0, 17 + 8), std::ios::in | std::ios::binary);
  const std::string msg = throw_message([&] { io::read_gap_wsg(ss); });
  EXPECT_NE(msg.find("truncated wsg offset array"), std::string::npos) << msg;
  EXPECT_NE(msg.find("byte offset 17"), std::string::npos) << msg;
}

TEST(EdgeListIo, RejectsNegativeValuesWithLineNumber) {
  std::stringstream ss("0 1 3\n2 -7 1\n");
  const std::string msg =
      throw_message([&] { io::read_edge_list(ss, false); });
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("negative value"), std::string::npos) << msg;
}

TEST(EdgeListIo, RejectsIdsBeyond32Bits) {
  std::stringstream ss("0 99999999999 1\n");
  EXPECT_THROW(io::read_edge_list(ss, false), GraphFormatError);
}

TEST(MatrixMarket, RejectsOutOfRangeEntryWithPosition) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate integer general\n"
      "3 3 2\n"
      "1 2 7\n"
      "5 1 4\n");
  const std::string msg = throw_message([&] { io::read_matrix_market(ss); });
  EXPECT_NE(msg.find("entry 2 of 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("out of range"), std::string::npos) << msg;
}

TEST(MatrixMarket, RejectsNegativeWeight) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate integer general\n"
      "3 3 1\n"
      "1 2 -7\n");
  const std::string msg = throw_message([&] { io::read_matrix_market(ss); });
  EXPECT_NE(msg.find("negative weight"), std::string::npos) << msg;
}

TEST(MatrixMarket, RejectsTruncatedEntries) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate integer general\n"
      "3 3 3\n"
      "1 2 7\n");
  const std::string msg = throw_message([&] { io::read_matrix_market(ss); });
  EXPECT_NE(msg.find("truncated entries"), std::string::npos) << msg;
}

TEST(BinaryIo, FileRoundTrip) {
  const Graph g = gen::grid(5, 5, WeightScheme::gap(), 4);
  const std::string path = testing::TempDir() + "/wasp_io_test.bin";
  io::write_binary_file(g, path);
  const Graph h = io::read_binary_file(path);
  expect_same_graph(g, h);
}

TEST(ReadGraphFile, FormatFromExtension) {
  EXPECT_EQ(io::format_from_extension("g.mtx"), "mtx");
  EXPECT_EQ(io::format_from_extension("g.el"), "edgelist");
  EXPECT_EQ(io::format_from_extension("g.txt"), "edgelist");
  EXPECT_EQ(io::format_from_extension("g.wsg"), "wsg");
  EXPECT_EQ(io::format_from_extension("g.sg"), "wsg");
  EXPECT_EQ(io::format_from_extension("g.wsp"), "binary");
  EXPECT_EQ(io::format_from_extension("g.mtx.bak"), "binary");
  EXPECT_EQ(io::format_from_extension("g"), "binary");
}

TEST(ReadGraphFile, AutoPicksTheReaderByExtension) {
  const Graph g = gen::grid(4, 5, WeightScheme::gap(), 6);
  const std::string base = testing::TempDir() + "/wasp_read_graph_file";
  for (const char* ext : {".wsg", ".sg"}) {
    io::write_gap_wsg_file(g, base + ext);
    expect_same_graph(g, io::read_graph_file(base + ext, "auto"));
  }
  for (const char* ext : {".el", ".txt"}) {
    io::write_edge_list_file(g, base + ext);
    expect_same_graph(
        g, io::read_graph_file(base + ext, "auto", /*undirected=*/true));
  }
  for (const char* ext : {".wsp", ".bin"}) {
    io::write_binary_file(g, base + ext);
    expect_same_graph(g, io::read_graph_file(base + ext, "auto"));
  }
  {
    std::ofstream out(base + ".mtx");
    out << "%%MatrixMarket matrix coordinate integer general\n"
           "3 3 2\n1 2 5\n2 3 7\n";
  }
  const Graph m = io::read_graph_file(base + ".mtx", "auto");
  EXPECT_EQ(m.num_vertices(), 3u);
  EXPECT_EQ(m.num_edges(), 2u);
  EXPECT_EQ(m.out_neighbors(1)[0], (WEdge{2, 7}));
}

TEST(ReadGraphFile, ExplicitFormatOverridesExtension) {
  const Graph g = gen::grid(3, 3, WeightScheme::gap(), 7);
  const std::string path = testing::TempDir() + "/wasp_read_graph_file.dat";
  io::write_gap_wsg_file(g, path);
  expect_same_graph(g, io::read_graph_file(path, "wsg"));
  EXPECT_THROW(io::read_graph_file(path, "auto"), GraphFormatError);
}

TEST(ReadGraphFile, RejectsUnknownFormatName) {
  // The name is checked before the file is opened, so no file is needed.
  const std::string msg = throw_message(
      [] { (void)io::read_graph_file("no_such_graph.wsp", "bogus"); });
  EXPECT_NE(msg.find("unknown format 'bogus'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("wsg"), std::string::npos) << msg;
  EXPECT_THROW((void)io::read_graph_file("no_such_graph.wsp", "bogus"),
               GraphFormatError);
}

}  // namespace
}  // namespace wasp
