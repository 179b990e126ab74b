// NUMA-partitioned execution vs flat Wasp (docs/NUMA.md):
// the same graphs solved by the flat work-stealing engine and by the
// partitioned engine under a ladder of synthetic topologies (single node,
// two nodes, two sockets x two nodes). Reports wall time plus the remote
// traffic the partition actually generated — remote relaxations, batches,
// and the remote share of all relaxations — and checks every partitioned
// distance vector bit-identical to the flat answer before timing is
// trusted.
//
// On a one-node CI host the synthetic topologies still exercise the whole
// remote-queue path (fragments are per synthetic node, not per physical
// node), so the interesting outputs here are the traffic counters and the
// single-node parity run, not cross-socket speedups.
//
// Besides the table, writes a machine-readable JSON report (default
// BENCH_numa.json; tools/bench_check.py validates it, and the ctest smoke
// job runs a tiny instance with --schema-only).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "support/numa.hpp"

using namespace wasp;

namespace {

struct Row {
  std::string graph;
  std::string topology;  ///< "flat" or the synthetic ladder rung
  int fragments = 0;     ///< 0 for the flat engine
  double seconds = 0.0;
  double edges_per_sec = 0.0;
  std::uint64_t relaxations = 0;
  std::uint64_t remote_relaxations = 0;
  std::uint64_t remote_batches = 0;
  double remote_share = 0.0;  ///< remote_relaxations / relaxations
  bool exact = true;          ///< distances == flat engine's answer
};

struct TopoConfig {
  std::string name;
  std::shared_ptr<const NumaTopology> topo;  ///< null = flat engine
  int fragments = 0;
};

/// The topology ladder: flat baseline, then partitioned on one node
/// (parity: no remote traffic possible), two nodes, and 2x2 sockets.
std::vector<TopoConfig> topo_ladder(int threads) {
  const int per2 = std::max(1, (threads + 1) / 2);
  const int per4 = std::max(1, (threads + 3) / 4);
  std::vector<TopoConfig> out;
  out.push_back({"flat", nullptr, 0});
  out.push_back({"1node",
                 std::make_shared<NumaTopology>(NumaTopology::flat(threads)),
                 1});
  out.push_back({"2node",
                 std::make_shared<NumaTopology>(
                     NumaTopology::synthetic(1, 2, per2)),
                 2});
  out.push_back({"2x2",
                 std::make_shared<NumaTopology>(
                     NumaTopology::synthetic(2, 2, per4)),
                 4});
  return out;
}

void write_json(const std::string& path, int threads, double scale,
                const std::vector<Row>& rows) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"schema_version\": 1,\n"
      << "  \"bench\": \"numa_fragments\",\n"
      << "  \"threads\": " << threads << ",\n"
      << "  \"scale\": " << scale << ",\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"graph\": \"%s\", \"topology\": \"%s\", \"fragments\": %d, "
        "\"seconds\": %.6f, \"edges_per_sec\": %.1f, \"relaxations\": %llu, "
        "\"remote_relaxations\": %llu, \"remote_batches\": %llu, "
        "\"remote_share\": %.6f, \"exact\": %s}%s\n",
        r.graph.c_str(), r.topology.c_str(), r.fragments, r.seconds,
        r.edges_per_sec, static_cast<unsigned long long>(r.relaxations),
        static_cast<unsigned long long>(r.remote_relaxations),
        static_cast<unsigned long long>(r.remote_batches), r.remote_share,
        r.exact ? "true" : "false", i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("numa_fragments",
                 "partitioned Wasp vs flat across synthetic NUMA topologies");
  bench::add_common_args(args);
  args.add_int("flush", 64, "remote-batch flush threshold (records)");
  args.add_string("out", "BENCH_numa.json", "machine-readable report path");
  args.parse(argc, argv);

  const int threads = static_cast<int>(args.get_int("threads"));
  const int trials = static_cast<int>(args.get_int("trials"));
  const auto ladder = topo_ladder(threads);

  std::printf("NUMA fragments: flat vs partitioned Wasp (threads=%d, "
              "flush=%lld)\n\n",
              threads, static_cast<long long>(args.get_int("flush")));
  bench::print_cell("graph", 7);
  bench::print_cell("topo", 7);
  bench::print_cell("time", 12);
  bench::print_cell("remote", 12);
  bench::print_cell("batches", 10);
  bench::print_cell("share", 8);
  bench::print_cell("check", 7);
  std::printf("\n");

  std::vector<Row> rows;
  bool all_exact = true;
  for (const auto cls : bench::selected_classes(args)) {
    const auto w = suite::make(cls, args.get_double("scale"),
                               static_cast<std::uint64_t>(args.get_int("seed")));
    Solver& solver = bench::make_solver(threads);

    std::vector<Distance> reference;
    for (const TopoConfig& tc : ladder) {
      SsspOptions options;
      options.algo = Algorithm::kWasp;
      options.threads = threads;
      options.delta = bench::default_delta(Algorithm::kWasp, cls);
      if (tc.topo != nullptr) {
        options.wasp.topology = tc.topo;
        options.wasp.partition.enabled = true;
        options.wasp.partition.num_fragments = tc.fragments;
        options.wasp.partition.flush_threshold =
            static_cast<std::uint32_t>(args.get_int("flush"));
      }

      Row row;
      row.graph = suite::abbr(cls);
      row.topology = tc.name;
      row.fragments = tc.fragments;

      // Correctness before timing: partitioned answers must be
      // bit-identical to the flat engine's (SSSP distances are unique, so
      // this is schedule-independent).
      const SsspResult check = run_sssp(w.graph, w.source, options);
      if (tc.topo == nullptr)
        reference = check.dist;
      else
        row.exact = check.dist == reference;

      const auto m =
          bench::measure(w.graph, w.source, options, trials, solver);
      row.seconds = m.best_seconds;
      row.edges_per_sec =
          row.seconds > 0
              ? static_cast<double>(w.graph.num_edges()) / row.seconds
              : 0.0;
      row.relaxations = m.metrics.counter(obs::CounterId::kRelaxations);
      row.remote_relaxations =
          m.metrics.counter(obs::CounterId::kRemoteRelaxations);
      row.remote_batches = m.metrics.counter(obs::CounterId::kRemoteBatches);
      row.remote_share =
          row.relaxations > 0
              ? static_cast<double>(row.remote_relaxations) /
                    static_cast<double>(row.relaxations)
              : 0.0;
      all_exact = all_exact && row.exact;
      rows.push_back(row);

      char cell[32];
      bench::print_cell(row.graph, 7);
      bench::print_cell(row.topology, 7);
      bench::print_cell(bench::format_time_ms(row.seconds), 12);
      std::snprintf(cell, sizeof(cell), "%llu",
                    static_cast<unsigned long long>(row.remote_relaxations));
      bench::print_cell(cell, 12);
      std::snprintf(cell, sizeof(cell), "%llu",
                    static_cast<unsigned long long>(row.remote_batches));
      bench::print_cell(cell, 10);
      std::snprintf(cell, sizeof(cell), "%.3f", row.remote_share);
      bench::print_cell(cell, 8);
      bench::print_cell(row.exact ? "exact" : "MISMATCH", 7);
      std::printf("\n");
      std::fflush(stdout);
    }
  }

  const std::string out_path = args.get_string("out");
  write_json(out_path, threads, args.get_double("scale"), rows);
  std::printf("\nreport written to %s\n", out_path.c_str());
  std::printf("Expectation: 1node matches flat (parity, zero remote "
              "traffic); multi-node rungs keep the remote share small — "
              "batched lines, not per-edge CAS ping-pong.\n");
  return all_exact ? 0 : 1;
}
