// perfbench — the layered benchmark binary (see ../README.md).
//
//   perfbench --workload road_solve|social_service|live_traffic
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Prints one line describing the run (seed, input fingerprint, sizes,
// thread plan) and then the result line: {"correct", "attempted",
// "failed", "metrics"}. Untraced runs report the end-to-end metrics, traced
// runs the per-layer ones. Exits 1 on a usage error or a refused plan.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = val;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(val);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (arg == "--trace") {
        opt.trace = std::stoi(val) != 0;
      } else if (arg == "--trace-out") {
        opt.trace_out = val;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (!(opt.seconds > 0)) usage("--seconds must be positive");

  perfbench::Report rep;
  try {
    if (opt.workload == "road_solve") {
      perfbench::run_road_solve(opt, rep);
    } else if (opt.workload == "social_service") {
      perfbench::run_social_service(opt, rep);
    } else if (opt.workload == "live_traffic") {
      perfbench::run_live_traffic(opt, rep);
    } else {
      usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  rep.print();
  return 0;
}
