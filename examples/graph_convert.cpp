// Graph format converter — the analogue of the paper artifact's
// convert_mtx.sh / convert_gap.sh utilities: reads any supported format and
// writes any other, optionally assigning weights with the GAP or
// truncated-normal scheme along the way.
//
//   ./graph_convert --in graph.mtx --out graph.wsg
//   ./graph_convert --in edges.el --in-format edgelist --undirected
//                   --out graph.wsp --weights gap
//   ./graph_convert --class TW --scale 0.5 --out tw.wsg   # generate + save
#include <cstdio>
#include <string>

#include "graph/builder.hpp"
#include "graph/io.hpp"
#include "graph/suite.hpp"
#include "graph/weights.hpp"
#include "support/cli.hpp"

namespace {

std::string infer_format(const std::string& path, const std::string& flag) {
  if (flag != "auto") return flag;
  if (path.ends_with(".mtx")) return "mtx";
  if (path.ends_with(".el") || path.ends_with(".txt")) return "edgelist";
  if (path.ends_with(".wsg") || path.ends_with(".sg")) return "wsg";
  return "binary";
}

int run(int argc, char** argv) {
  wasp::ArgParser args("graph_convert", "convert graphs between formats");
  args.add_string("in", "", "input path (omit when using --class)");
  args.add_string("in-format", "auto", "auto|binary|wsg|edgelist|mtx");
  args.add_flag("undirected", "treat input edge list as undirected");
  args.add_string("class", "", "generate a workload class instead of loading");
  args.add_double("scale", 1.0, "workload scale for --class");
  args.add_string("out", "", "output path (required)");
  args.add_string("out-format", "auto", "auto|binary|wsg|edgelist");
  args.add_string("weights", "keep",
                  "keep | gap | unit | tnormal — reassign edge weights");
  args.add_int("seed", 1, "seed for generation / weight assignment");
  args.parse(argc, argv);

  const std::string out = args.get_string("out");
  if (out.empty()) {
    std::fprintf(stderr, "graph_convert: --out is required\n");
    return 2;
  }

  // --- load or generate -----------------------------------------------------
  wasp::Graph graph;
  const std::string in = args.get_string("in");
  if (!in.empty()) {
    const std::string format = infer_format(in, args.get_string("in-format"));
    if (format == "binary") graph = wasp::io::read_binary_file(in);
    else if (format == "wsg") graph = wasp::io::read_gap_wsg_file(in);
    else if (format == "mtx") graph = wasp::io::read_matrix_market_file(in);
    else graph = wasp::io::read_edge_list_file(in, args.get_flag("undirected"));
  } else if (!args.get_string("class").empty()) {
    graph = wasp::suite::make(wasp::suite::parse_abbr(args.get_string("class")),
                              args.get_double("scale"),
                              static_cast<std::uint64_t>(args.get_int("seed")))
                .graph;
  } else {
    std::fprintf(stderr, "graph_convert: need --in or --class\n");
    return 2;
  }

  // --- optional weight reassignment ------------------------------------------
  const std::string weights = args.get_string("weights");
  if (weights != "keep") {
    wasp::WeightScheme scheme = wasp::WeightScheme::gap();
    if (weights == "unit") scheme = wasp::WeightScheme::unit();
    else if (weights == "tnormal")
      scheme = wasp::WeightScheme::truncated_normal(1.0, 0.5, 64.0);
    else if (weights != "gap") {
      std::fprintf(stderr, "graph_convert: unknown weight scheme %s\n",
                   weights.c_str());
      return 2;
    }
    // Re-derive the edge list, reassign, rebuild (keeps symmetry for
    // undirected graphs because each edge is emitted once).
    std::vector<wasp::Edge> edges;
    edges.reserve(static_cast<std::size_t>(graph.num_edges()));
    for (wasp::VertexId u = 0; u < graph.num_vertices(); ++u)
      for (const wasp::WEdge& e : graph.out_neighbors(u))
        if (!graph.is_undirected() || e.dst >= u)
          edges.push_back({u, e.dst, e.w});
    wasp::assign_weights(edges, scheme,
                         static_cast<std::uint64_t>(args.get_int("seed")));
    graph = wasp::GraphBuilder()
        .edges(graph.num_vertices(), edges)
        .undirected(graph.is_undirected())
        .build();
  }

  // --- save -------------------------------------------------------------------
  const std::string out_format = infer_format(out, args.get_string("out-format"));
  if (out_format == "binary") wasp::io::write_binary_file(graph, out);
  else if (out_format == "wsg") wasp::io::write_gap_wsg_file(graph, out);
  else wasp::io::write_edge_list_file(graph, out);

  std::printf("%u vertices, %llu directed edges (%s) -> %s [%s]\n",
              graph.num_vertices(),
              static_cast<unsigned long long>(graph.num_edges()),
              graph.is_undirected() ? "undirected" : "directed", out.c_str(),
              out_format.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Corrupt or truncated inputs surface as typed errors with byte-precise
  // messages; report them instead of aborting.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "graph_convert: error: %s\n", e.what());
    return 1;
  }
}
