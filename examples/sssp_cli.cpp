// General-purpose SSSP command-line tool — the analogue of the GAP suite's
// `sssp` binary the paper builds on. Loads a graph (binary/GAP .wsg/edge
// list/Matrix Market) or generates a named workload class, runs any of the
// eight implementations, validates the result, and reports timing + work
// stats.
//
//   ./sssp_cli --class USA --algo wasp --threads 8 --delta 16 --trials 3
//   ./sssp_cli --load graph.wsp --algo gap --delta 32
//   ./sssp_cli --class TW --algo mq --save tw.wsp
#include <cstdio>
#include <string>

#include "graph/algorithms.hpp"
#include "graph/io.hpp"
#include "graph/suite.hpp"
#include "sssp/solver.hpp"
#include "sssp/validate.hpp"
#include "support/cli.hpp"
#include "support/stats.hpp"

namespace {

int run(int argc, char** argv) {
  wasp::ArgParser args("sssp_cli", "run any SSSP implementation on any graph");
  args.add_string("class", "USA",
                  "workload class abbreviation (USA, EU, KV, MW, TW, ...)");
  args.add_double("scale", 1.0, "workload scale factor");
  args.add_string("load", "",
                  "load a graph instead: path to .wsp/.wsg/.el/.mtx");
  args.add_string("format", "auto",
                  "load format: auto|binary|wsg|edgelist|mtx");
  args.add_flag("undirected", "treat a loaded edge list as undirected");
  args.add_string("save", "", "save the graph in binary format and exit");
  args.add_string("algo", "wasp", wasp::algorithm_list());
  args.add_int("threads", 4, "worker threads");
  args.add_int("delta", 1, "bucket width");
  args.add_int("trials", 1, "repetitions (best time reported)");
  args.add_int("source", -1, "source vertex (-1: random in largest component)");
  args.add_flag("no-validate", "skip fixed-point validation");
  args.parse(argc, argv);

  // --- acquire the graph --------------------------------------------------
  wasp::Graph graph;
  wasp::VertexId source = 0;
  std::string name;
  const std::string load = args.get_string("load");
  if (!load.empty()) {
    graph = wasp::io::read_graph_file(load, args.get_string("format"),
                                      args.get_flag("undirected"));
    name = load;
    source = wasp::pick_source_in_largest_component(graph, 1);
  } else {
    const auto cls = wasp::suite::parse_abbr(args.get_string("class"));
    auto workload = wasp::suite::make(cls, args.get_double("scale"), 1);
    graph = std::move(workload.graph);
    source = workload.source;
    name = wasp::suite::describe(cls);
  }
  if (args.get_int("source") >= 0)
    source = static_cast<wasp::VertexId>(args.get_int("source"));

  std::printf("graph: %s — %u vertices, %llu directed edges (%s)\n",
              name.c_str(), graph.num_vertices(),
              static_cast<unsigned long long>(graph.num_edges()),
              graph.is_undirected() ? "undirected" : "directed");

  const std::string save = args.get_string("save");
  if (!save.empty()) {
    wasp::io::write_binary_file(graph, save);
    std::printf("saved binary graph to %s\n", save.c_str());
    return 0;
  }

  // --- run ------------------------------------------------------------------
  wasp::SsspOptions options;
  options.algo = wasp::parse_algorithm(args.get_string("algo"));
  options.threads = static_cast<int>(args.get_int("threads"));
  options.delta = static_cast<wasp::Weight>(args.get_int("delta"));

  std::vector<double> times;
  wasp::SsspResult result;
  const auto trials = static_cast<int>(args.get_int("trials"));
  // Trials share one Solver, so repeat timings measure the algorithm, not
  // repeated team spawns and distance-array allocations.
  wasp::Solver solver(options);
  for (int t = 0; t < trials; ++t) {
    result = solver.solve(graph, source);
    times.push_back(result.metrics.seconds);
  }

  std::printf("algo=%s threads=%d delta=%u source=%u\n",
              wasp::to_string(options.algo), options.threads,
              options.delta, source);
  std::printf("time: best %.3f ms (median %.3f ms over %d trials)\n",
              wasp::minimum(times) * 1e3, wasp::median(times) * 1e3, trials);
  using wasp::obs::CounterId;
  const auto count = [&](CounterId id) {
    return static_cast<unsigned long long>(result.metrics.counter(id));
  };
  std::printf("relaxations=%llu updates=%llu steals=%llu rounds=%llu\n",
              count(CounterId::kRelaxations), count(CounterId::kUpdates),
              count(CounterId::kSteals), count(CounterId::kRounds));

  std::uint64_t reached = 0;
  for (const auto d : result.dist)
    if (d != wasp::kInfDist) ++reached;
  std::printf("reached %llu / %u vertices\n",
              static_cast<unsigned long long>(reached), graph.num_vertices());

  if (!args.get_flag("no-validate")) {
    std::string message;
    if (wasp::validate_sssp(graph, source, result.dist, &message)) {
      std::printf("validation: OK (fixed-point conditions hold)\n");
    } else {
      std::printf("validation: FAILED — %s\n", message.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Bad inputs (corrupt graph files, out-of-range sources, invalid options)
  // surface as typed errors; report them instead of aborting.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sssp_cli: error: %s\n", e.what());
    return 1;
  }
}
