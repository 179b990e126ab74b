// Shared benchmark harness: workload construction, trial measurement, delta
// tuning (the SLOW workflow of the paper's artifact) and per-class default
// deltas (the FAST workflow), plus fixed-width table printing so each bench
// binary emits the same rows/series its paper figure reports.
#pragma once

#include <string>
#include <vector>

#include "graph/suite.hpp"
#include "sssp/solver.hpp"
#include "sssp/sssp.hpp"
#include "support/cli.hpp"
#include "support/thread_team.hpp"

namespace wasp::bench {

/// One measured configuration: best-of-trials wall time plus the metrics
/// snapshot of the best run, and the watchdog's verdict when a trial
/// overran its deadline.
struct Measurement {
  double best_seconds = 0.0;
  double median_seconds = 0.0;
  obs::MetricsSnapshot metrics;  // from the best trial

  std::string failure;  ///< empty when clean; "watchdog-timeout" otherwise

  [[nodiscard]] bool ok() const { return failure.empty(); }
};

/// Default per-trial watchdog budget. Generous: the synthetic suite's worst
/// configurations finish in seconds; only a hung or livelocked run exceeds
/// it.
inline constexpr double kDefaultWatchdogSeconds = 240.0;

/// Runs `trials` repetitions through `solver` and keeps the best (the GAP
/// methodology). Routing trials through one Solver means published numbers
/// include the amortized front-end a repeat-query service actually runs:
/// pooled distances, one NUMA detection, one thread team.
/// `options` is installed into the solver for the measurement (the solver's
/// construction-time topology is kept when `options` carries none).
///
/// Each trial runs with a CancelToken deadline `watchdog_seconds` out: a
/// trial that overruns it is cancelled and joined, and the measurement
/// stops there with `failure` set and NaN times instead of wedging the
/// suite. Pass watchdog_seconds <= 0 to disable.
Measurement measure(const Graph& g, VertexId source, const SsspOptions& options,
                    int trials, Solver& solver,
                    double watchdog_seconds = kDefaultWatchdogSeconds);

/// Builds the Solver a bench binary routes its measurements through: the
/// worker count is fixed here; measure() installs each configuration's
/// options into it per measurement. The harness keeps ownership (solvers
/// live until process exit) purely to amortize construction — an overdue
/// trial is cancelled and joined, so every solver is destroyed normally.
Solver& make_solver(int threads);

/// Power-of-two delta candidates from 1 up to a heuristic cap derived from
/// the graph's maximum weight and diameter proxy.
std::vector<Weight> delta_candidates(const Graph& g);

/// Sweeps `candidates` (or delta_candidates(g) when empty) and returns the
/// delta with the best wall time for this configuration — task T1 of the
/// artifact (the SLOW workflow).
Weight tune_delta(const Graph& g, VertexId source, SsspOptions options,
                  const std::vector<Weight>& candidates, int trials,
                  Solver& solver);

/// FAST-workflow defaults: a per-algorithm, per-class delta guess encoding
/// the paper's Figure 4 structure (Wasp takes delta=1 on skewed graphs,
/// everything needs coarse deltas on road/kmer graphs).
Weight default_delta(Algorithm algo, suite::GraphClass cls);

/// True for the classes the paper characterizes as large-diameter/low-degree
/// (EU, USA, KV and the mesh-like appendix classes).
bool is_low_degree_class(suite::GraphClass cls);

/// Registers the options every bench binary shares: --scale, --threads,
/// --trials, --graphs, --full, --tune, --seed.
void add_common_args(ArgParser& args);

/// Resolves the graph-class list: --graphs "USA,TW" wins; otherwise --full
/// selects the 13-class main suite, else the reduced core suite.
std::vector<suite::GraphClass> selected_classes(const ArgParser& args);

/// The seven implementations of the paper's Figure 5 comparison, in row
/// order: dstar, galois, gap, gbbs, mq, rho, wasp.
std::vector<Algorithm> figure5_algorithms();

/// Prints a row label padded to a fixed width.
void print_cell(const std::string& text, int width);

/// "1.23x" / "0.45s"-style formatting.
std::string format_time_ms(double seconds);
std::string format_speedup(double x);

}  // namespace wasp::bench
