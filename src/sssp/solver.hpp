// wasp::Solver — the amortizing handle over the SSSP front-end.
//
// run_sssp() builds a one-shot Solver, so it spawns a thread team, detects
// the NUMA topology, and allocates a metrics registry per call; a
// production caller answering many queries pays all of that once by holding
// a Solver:
//
//   wasp::SsspOptions opt;
//   opt.algo = wasp::Algorithm::kWasp;
//   opt.threads = 8;
//   opt.delta = 16;
//   wasp::Solver solver(opt);              // validates, spawns, detects
//   solver.enable_trace();                 // optional: event rings per thread
//   for (auto [g, src] : queries)
//     wasp::SsspResult r = solver.solve(*g, src);
//   solver.last_metrics().write_json(std::cout);
//
// The Solver owns the ThreadTeam, the (shared) NumaTopology, the
// MetricsRegistry, the pooled distance array, the fragments and shards of
// Wasp runs with more than one fragment (built on the first such solve of a
// graph and kept until a solve needs a different graph stamp, fragment count
// or topology), and an
// optional TraceRecorder, and carries the observer and chaos-engine pointers
// through every solve. Options other than `threads` may be adjusted between
// solves via options().
#pragma once

#include <cstddef>
#include <memory>

#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/trace.hpp"
#include "sssp/common.hpp"
#include "support/thread_team.hpp"

namespace wasp {

class Solver {
 public:
  /// Validates `options`, spawns the worker team, and resolves the NUMA
  /// topology (options.wasp.topology is filled in when empty, so repeated
  /// solve() calls never re-detect). Throws InvalidOptionsError on bad
  /// knobs.
  explicit Solver(SsspOptions options);

  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// Runs options().algo from `source` on the owned team. Re-validates
  /// options (they are mutable between solves) and resets the registry, so
  /// each result's metrics cover exactly one run.
  ///
  /// A Solver runs ONE solve at a time: the team, distance pool, and
  /// registry are per-run state with no internal synchronization.
  /// Overlapping calls from a second thread throw SolverBusyError instead
  /// of racing silently — hold one Solver per in-flight query (the
  /// service::QueryService fleet does exactly this). A solve cancelled via
  /// options().cancel throws SolveCancelledError after discarding the
  /// partial distances; the Solver remains reusable.
  SsspResult solve(const Graph& g, VertexId source);

  /// Same, overriding the algorithm for this call only (the bench harness
  /// sweeps algorithms over one team this way).
  SsspResult solve(const Graph& g, VertexId source, Algorithm algo);

  /// Mutable between solves; `threads` is fixed at construction (the team
  /// size wins). validate() runs again at the next solve().
  [[nodiscard]] SsspOptions& options() { return options_; }
  [[nodiscard]] const SsspOptions& options() const { return options_; }

  [[nodiscard]] ThreadTeam& team() { return team_; }
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  /// The owned epoch-versioned distance pool solve() draws from (see
  /// SsspOptions::uses_distance_pool); a repeat query on the same graph
  /// pays an O(1) epoch bump instead of the O(V) infinity fill (the
  /// epoch_sweeps counter reports which happened).
  [[nodiscard]] DistancePool& distances() { return pool_; }
  /// Snapshot taken by the most recent solve() (empty before the first).
  [[nodiscard]] const obs::MetricsSnapshot& last_metrics() const {
    return last_metrics_;
  }

  /// Installs a run observer for subsequent solves (null to remove).
  /// Takes precedence over options().observer.
  void set_observer(obs::RunObserver* observer) { observer_ = observer; }

  /// Creates (or returns) the owned per-thread trace recorder; subsequent
  /// solves record into it. With WASP_OBS=OFF this is the no-op stub.
  obs::TraceRecorder& enable_trace(
      std::size_t events_per_thread = std::size_t{1} << 14);
  /// The owned recorder, or null when enable_trace was never called.
  [[nodiscard]] obs::TraceRecorder* trace() { return trace_.get(); }

 private:
  SsspOptions options_;
  obs::MetricsRegistry metrics_;
  DistancePool pool_;
  PartitionCache partitions_;
  std::unique_ptr<obs::TraceRecorder> trace_;
  obs::RunObserver* observer_ = nullptr;
  obs::MetricsSnapshot last_metrics_;
  /// Re-entrancy guard: 1 while a solve is in flight (see solve() docs).
  verify::atomic<std::uint32_t> busy_{0};
  // Declared last so it is destroyed first: the destructor joins the
  // workers, so no worker can still be touching the registry, pool,
  // partitions, or recorder above when they are freed.
  ThreadTeam team_;
};

}  // namespace wasp
