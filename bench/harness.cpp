#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "support/cancel.hpp"
#include "support/errors.hpp"
#include "support/stats.hpp"

namespace wasp::bench {

namespace {

/// Solvers handed out by make_solver(). Owning them here (instead of by
/// value in the bench binaries) keeps one construction per worker count for
/// the whole process — the amortization the Solver front-end exists for.
std::vector<std::unique_ptr<Solver>> g_solvers;  // NOLINT(cert-err58-cpp)

}  // namespace

Measurement measure(const Graph& g, VertexId source, const SsspOptions& options,
                    int trials, Solver& solver, double watchdog_seconds) {
  Measurement m;
  std::vector<double> times;
  m.best_seconds = 1e100;
  // Keep the NUMA topology the solver resolved at construction: bench
  // configs usually carry none, and per-trial re-detection is exactly the
  // cost the Solver front-end amortizes away.
  std::shared_ptr<const NumaTopology> topology = solver.options().wasp.topology;
  solver.options() = options;
  SsspOptions& opts = solver.options();
  if (!opts.wasp.topology) opts.wasp.topology = std::move(topology);
  for (int t = 0; t < std::max(trials, 1); ++t) {
    // The watchdog is the trial's deadline. Every parallel algorithm polls
    // it, so an overdue trial unwinds cooperatively, its partial distances
    // are discarded, and the Solver stays reusable.
    CancelToken deadline;
    if (watchdog_seconds > 0) {
      deadline.set_budget(std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::duration<double>(watchdog_seconds)));
      opts.cancel = &deadline;
    }
    SsspResult r;
    try {
      r = solver.solve(g, source);
    } catch (const SolveCancelledError&) {
      m.failure = "watchdog-timeout";
      break;
    }
    times.push_back(r.metrics.seconds);
    if (r.metrics.seconds < m.best_seconds) {
      m.best_seconds = r.metrics.seconds;
      m.metrics = std::move(r.metrics);
    }
  }
  opts.cancel = nullptr;
  if (times.empty()) {
    m.best_seconds = std::numeric_limits<double>::quiet_NaN();
    m.median_seconds = m.best_seconds;
    return m;
  }
  m.median_seconds = median(times);
  return m;
}

Solver& make_solver(int threads) {
  SsspOptions options;
  options.threads = threads;
  g_solvers.push_back(std::make_unique<Solver>(std::move(options)));
  return *g_solvers.back();
}

std::vector<Weight> delta_candidates(const Graph& g) {
  const Weight max_w = std::max<Weight>(g.max_weight(), 1);
  // Up to ~64x the max weight: beyond that every bucket-based algorithm has
  // effectively collapsed to one bucket (a Bellman-Ford sweep) on our
  // workload sizes.
  const std::uint64_t cap = static_cast<std::uint64_t>(max_w) * 64;
  std::vector<Weight> candidates;
  for (std::uint64_t d = 1; d <= cap; d *= 4)
    candidates.push_back(static_cast<Weight>(d));
  return candidates;
}

Weight tune_delta(const Graph& g, VertexId source, SsspOptions options,
                  const std::vector<Weight>& candidates, int trials,
                  Solver& solver) {
  std::vector<Weight> cands = candidates.empty() ? delta_candidates(g) : candidates;
  // Sweep from coarse to fine and stop once a candidate is far past the
  // optimum: run time grows steeply (extra rounds + barriers) as delta
  // shrinks below the sweet spot, so candidates after a 4x regression can
  // only lose. This keeps road-graph sweeps from spending minutes in the
  // pathological delta=1 corner of the synchronous baselines.
  std::sort(cands.begin(), cands.end(), std::greater<>());
  Weight best_delta = cands.front();
  double best_time = 1e100;
  for (const Weight d : cands) {
    options.delta = d;
    const Measurement m = measure(g, source, options, trials, solver);
    if (m.best_seconds < best_time) {
      best_time = m.best_seconds;
      best_delta = d;
    } else if (m.best_seconds > 4.0 * best_time) {
      break;
    }
  }
  return best_delta;
}

bool is_low_degree_class(suite::GraphClass cls) {
  using GC = suite::GraphClass;
  switch (cls) {
    case GC::kRoadEu:
    case GC::kRoadUsa:
    case GC::kKmer:
    case GC::kDelaunay:
    case GC::kKktPower:
    case GC::kNlpKkt:
    case GC::kSpielman:
    case GC::kCircuit:
      return true;
    default:
      return false;
  }
}

Weight default_delta(Algorithm algo, suite::GraphClass cls) {
  const bool low_degree = is_low_degree_class(cls);
  switch (algo) {
    case Algorithm::kWasp:
      // Figure 4: Wasp prefers delta=1 on 9 of 13 graphs; only the
      // low-degree classes (and Moliere) want coarsening.
      return low_degree ? 1024 : 1;
    case Algorithm::kMqDijkstra:
    case Algorithm::kDijkstra:
      return 1;  // delta-free algorithms
    case Algorithm::kObim:
      return low_degree ? 4096 : 16;
    default:
      // Synchronous steppers need coarse buckets everywhere, coarser still
      // on road-like graphs.
      return low_degree ? 8192 : 64;
  }
}

void add_common_args(ArgParser& args) {
  args.add_double("scale", 0.5, "workload scale factor (vertex multiplier)");
  // Default to 8 workers on machines that can run them in parallel, 4 on
  // smaller boxes (oversubscription still exercises every code path but
  // slows the sweeps down).
  const int default_threads = hardware_threads() >= 8 ? 8 : 4;
  args.add_int("threads", default_threads, "worker threads");
  args.add_int("trials", 2, "trials per configuration (best kept)");
  args.add_string("graphs", "", "comma-separated class abbreviations");
  args.add_string("csv", "", "append machine-readable rows to this CSV file");
  args.add_flag("full", "use the full 13-class suite (default: core suite)");
  args.add_flag("tune", "tune delta per configuration (SLOW workflow)");
  args.add_int("seed", 1, "workload seed");
  args.add_double("watchdog-sec", kDefaultWatchdogSeconds,
                  "per-trial watchdog timeout in seconds (<=0 disables)");
  args.add_string("trace", "",
                  "write a Chrome trace_event JSON of the last run here");
}

std::vector<suite::GraphClass> selected_classes(const ArgParser& args) {
  const std::string csv = args.get_string("graphs");
  if (!csv.empty()) {
    std::vector<suite::GraphClass> classes;
    std::stringstream ss(csv);
    std::string token;
    while (std::getline(ss, token, ','))
      if (!token.empty()) classes.push_back(suite::parse_abbr(token));
    return classes;
  }
  return args.get_flag("full") ? suite::main_suite() : suite::core_suite();
}

std::vector<Algorithm> figure5_algorithms() {
  return {Algorithm::kDeltaStar, Algorithm::kObim,      Algorithm::kDeltaStepping,
          Algorithm::kJulienne,  Algorithm::kMqDijkstra, Algorithm::kRhoStepping,
          Algorithm::kWasp};
}

void print_cell(const std::string& text, int width) {
  std::printf("%-*s", width, text.c_str());
}

std::string format_time_ms(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fms", seconds * 1e3);
  return buf;
}

std::string format_speedup(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", x);
  return buf;
}

}  // namespace wasp::bench
