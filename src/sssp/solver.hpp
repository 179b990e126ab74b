// wasp::Solver — the one front door to every SSSP implementation: Wasp, the
// six paper baselines and the Dijkstra reference, all returning the same
// SsspResult, and to incremental repair over versioned graphs. A one-shot
// solve is `wasp::Solver(opt).solve(g, source)`. Constructing a Solver
// spawns its thread team, detects the NUMA topology and allocates a metrics
// registry, so a caller answering many queries pays all of that once by
// holding one:
//
//   wasp::SsspOptions opt;
//   opt.algo = wasp::Algorithm::kWasp;
//   opt.threads = 8;
//   opt.delta = 16;
//   wasp::obs::TraceRecorder trace(opt.threads);
//   opt.trace = &trace;                    // optional: event rings per thread
//   wasp::Solver solver(opt);              // validates, spawns, detects
//   for (auto [g, src] : queries)
//     wasp::SsspResult r = solver.solve(*g, src);
//   solver.last_metrics().write_json(std::cout);
//
//   // A versioned graph: repair the answer at `v` to vg.version().
//   wasp::Answer a = solver.solve(vg, src, {}, 0);  // no answer: full solve
//   std::uint64_t v = vg.version();
//   vg.apply(batch);
//   a = solver.solve(vg, src, a, v);                // repaired, not re-solved
//
// The Solver owns the ThreadTeam, the (shared) NumaTopology, the
// MetricsRegistry, a free list of the distance buffers its answers' last
// holders dropped, the fragments of Wasp runs with more than one
// fragment (built on the first such solve of a graph and kept until a
// solve needs a different graph stamp, fragment count or topology) and,
// from its first versioned solve on, the repair state
// (sssp/incremental.hpp). A run relaxes in the buffer it returns. Each
// solve reports to options().observer and options().trace, the one door
// for each hook. Per-algorithm knobs are
// nested (opt.stepping.rho, opt.mq.c, ...); options other than `threads`
// may be adjusted between solves via options().
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/delta.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "sssp/answer.hpp"
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
  ~Solver();

  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// Runs options().algo from `source` on the owned team. Re-validates
  /// options (they are mutable between solves) and resets the registry, so
  /// each result's metrics cover exactly one run. Every run but Dijkstra's
  /// fills a buffer (one epoch_sweeps), relaxes in it, and returns it as
  /// result.dist with no copy; a partitioned Wasp run's fragments relax in
  /// its sub-ranges.
  ///
  /// A Solver runs ONE solve at a time: the team, buffers, and registry are
  /// per-run state with no internal synchronization.
  /// Overlapping calls from a second thread throw SolverBusyError instead
  /// of racing silently — hold one Solver per in-flight query (the
  /// service::QueryService fleet does exactly this). A solve cancelled via
  /// options().cancel throws SolveCancelledError after discarding the
  /// partial distances; the Solver remains reusable.
  SsspResult solve(const Graph& g, VertexId source);

  /// Same, overriding the algorithm for this call only (the bench harness
  /// sweeps algorithms over one team this way).
  SsspResult solve(const Graph& g, VertexId source, Algorithm algo);

  /// Exact distances for (vg.graph(), source) at vg's current version,
  /// repaired from `from`: the caller guarantees it is the exact answer for
  /// (vg, source) at version `from_version`, as wasp_sssp_seeded's caller
  /// guarantees admissible bounds. Compacts vg when dirty (the engine
  /// consumes the flat CSR). An empty `from`, or one older than
  /// vg.journal_floor(), is re-solved from scratch with options().algo; one
  /// at vg.version() is returned as it is. A repair always runs the Wasp
  /// engine (options().delta and options().wasp apply). The answer is never
  /// written while held: a solve that changes it publishes another buffer.
  ///
  /// Throws InvalidSourceError / InvalidGraphError as the cold door does,
  /// and InvalidOptionsError when `from_version` is above vg.version() or a
  /// non-empty `from` is not sized to vg.num_vertices(). One solve at a
  /// time, as above: overlapping this and any other solve() throws
  /// SolverBusyError. Cancellation: options().cancel is polled inside the
  /// cone walk and by the engine; a fired token throws SolveCancelledError,
  /// frees the repair's working buffer unpublished and leaves the Solver
  /// reusable.
  ///
  /// last_metrics() is the report. A repair's covers the walk, both engine
  /// runs and the publish: the kRepair* counters say what it did, and
  /// kEpochSweeps and kRepairArrayCopies are 1 when `from` was copied
  /// whole, 0 when a buffer one publish back was patched forward instead
  /// (docs/DYNAMIC.md splits its wall time). A full solve's is the cold
  /// door's with kRepairFullSolves = 1; a solve with no new version leaves
  /// it all zero. Every report carries the kSolverStateBytes gauge.
  Answer solve(VersionedGraph& vg, VertexId source, const Answer& from,
               std::uint64_t from_version);

  /// Mutable between solves; `threads` is fixed at construction (the team
  /// size wins). validate() runs again at the next solve().
  [[nodiscard]] SsspOptions& options() { return options_; }
  [[nodiscard]] const SsspOptions& options() const { return options_; }

  [[nodiscard]] ThreadTeam& team() { return team_; }
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  /// Snapshot taken by the most recent solve() of either kind (empty before
  /// the first).
  [[nodiscard]] const obs::MetricsSnapshot& last_metrics() const {
    return last_metrics_;
  }

 private:
  /// The repair state of the versioned solve() (sssp/incremental.hpp).
  class Repair;
  /// A distance buffer, tagged with the publish generation it holds, and
  /// the free list of them (sssp/incremental.hpp).
  struct AnswerBuffer {
    std::vector<Distance> dist;
    std::uint64_t generation = 0;
  };
  class BufferPool;

  /// Validates inputs and options, fills a buffer for every algorithm but
  /// Dijkstra, then runs options().algo in it. The caller holds busy_.
  SsspResult dispatch(const Graph& g, VertexId source);
  /// Sets `report`'s kSolverStateBytes gauge to what the Solver holds now.
  void record_state_bytes(obs::MetricsSnapshot& report) const;
  /// Throws the typed cancellation outcome for a token that has fired.
  [[noreturn]] static void throw_cancelled(const CancelToken& token);

  SsspOptions options_;
  obs::MetricsRegistry metrics_;
  /// The one pool: published answers return here when their last holder
  /// drops them, and cold runs take buffers from here first.
  std::shared_ptr<BufferPool> buffers_;
  PartitionCache partitions_;
  obs::MetricsSnapshot last_metrics_;
  /// Built by the first versioned solve(); null until then.
  std::unique_ptr<Repair> repair_;
  /// Re-entrancy guard: 1 while a solve of either kind is in flight.
  verify::atomic<std::uint32_t> busy_{0};
  // Declared last so it is destroyed first: the destructor joins the
  // workers, so no worker can still be touching the registry, buffers,
  // partitions or repair state above when they are freed.
  ThreadTeam team_;
};

}  // namespace wasp
