// Incremental SSSP repair over versioned graphs (the Ramalingam–Reps-style
// counterpart to graph/delta.hpp).
//
// An IncrementalSolver binds to one (VersionedGraph, source) pair and keeps
// the epoch-versioned tentative-distance array of its last answer *warm*.
// When the graph moves forward by a batch, solve() replays the journal
// instead of recomputing:
//
//  1. Classification. Every journaled ArcEffect is either a decrease
//     (insert / weight drop — some path may have gotten cheaper; the arc's
//     source becomes a relaxation seed) or an increase (erase / weight rise
//     — distances that rode the arc may be invalid).
//  2. Cone invalidation. For each increase whose arc was admissible under
//     the warm distances (dist[u] + old_w <= dist[v], a conservative
//     shortest-path-parent predicate), the head v starts a cone walk:
//     every vertex reachable from it through admissible arcs may have
//     depended on the changed arc. The whole cone is reset to infinity —
//     over-approximation is safe (extra recompute), under-approximation is
//     not (a stale too-small bound would poison monotone relaxation).
//  3. Seeding. The repair frontier is the cone's in-boundary (intact
//     vertices with an arc into the cone) plus every decrease source. By
//     the warm-start argument in wasp.hpp, relaxing
//     from exactly this set converges to the same fixed point as a cold
//     solve. An undirected graph's out-arcs are its in-arcs, so the cone
//     walk collects the boundary as it goes; a directed graph takes a
//     second pass over a cached transpose.
//  4. Repair. wasp_sssp_seeded runs the normal work-stealing engine over
//     the warm array — no epoch bump, so untouched vertices cost nothing —
//     in work proportional to the cone, not the graph. A small repair (cone
//     plus seeds below kInlineRepairWork) runs on the calling thread alone:
//     waking the Solver's team would cost more than the work it shares.
//  5. Publish. The engine logs every vertex it lowers (LoweredLog), so the
//     next answer is a copy of the previous one with the cone and the
//     logged vertices re-read from the array: O(cone + lowered) decoding,
//     not O(V). A wide repair, whose cone alone or cone plus log passes a
//     fixed share of n, decodes the whole array once instead.
//
// Answers are immutable: each solve() that changes the answer publishes a
// new buffer, and answer() hands out a shared reference to it. A holder of
// an earlier answer keeps reading its own version unchanged, so a cache
// (QueryService) can keep the buffer itself instead of a copy.
//
// Anything that breaks the warm contract (first query, source change,
// journal trimmed past our version, the underlying solver used for another
// query in between, a graph swap) falls back to a full solve through the
// owned wasp::Solver; last_repair().full_solve records which path ran.
//
// Correctness anchor (tests/test_incremental.cpp): distances after every
// batch are bit-identical to a from-scratch solve.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/delta.hpp"
#include "graph/graph.hpp"
#include "sssp/common.hpp"
#include "sssp/solver.hpp"
#include "sssp/wasp.hpp"
#include "support/thread_team.hpp"

namespace wasp {

/// A repair whose work (cone plus seeds) is below this runs the engine on
/// a one-participant team, the calling thread alone; from it up, on the
/// Solver's team. A team run pays a condvar wake, idle peers' steal and
/// termination scans, and a join, which a cone of a few hundred vertices
/// does not earn back. `dyn_updates --cone-sweep --scale 1 --graphs USA
/// --threads 4` (a 102,400-vertex road grid, Δ = 1024, medians of 15 runs
/// per width, each after a 2 ms idle gap, seeds 1-7) on a 4-vCPU Xeon VM
/// gave a team/one time ratio of 2.1-6.3 up to 310 work (no team run took
/// under 0.09 ms), 1.3-1.8 at 440-650, 0.98-1.16 at 675-810, 0.82-1.03 at
/// 1,030-1,500, 0.65-0.77 at 2,200-5,000 and 0.36-0.54 from 10,000 up.
inline constexpr std::uint64_t kInlineRepairWork = 1024;

/// Participants a repair of `work` vertices (cone plus seeds) runs on,
/// given a Solver team of `team_size`: 1 below kInlineRepairWork, else the
/// whole team.
[[nodiscard]] constexpr int repair_workers(std::uint64_t work,
                                           int team_size) {
  return work < kInlineRepairWork ? 1 : team_size;
}

/// What the last solve() did, for observability and tests. The same numbers
/// feed the kRepair* counters in the solver's MetricsRegistry.
struct RepairStats {
  bool full_solve = true;          ///< fell back to a from-scratch solve
  std::uint64_t batches = 0;       ///< versions caught up by the repair
  std::uint64_t effects = 0;       ///< journaled arc effects replayed
  std::uint64_t cone_vertices = 0; ///< vertices invalidated to infinity
  std::uint64_t seed_vertices = 0; ///< warm seeds handed to the engine
  /// Entries the engine logged (LoweredLog; 0 when the cone alone was too
  /// wide to log). Equals the run's kUpdates count when the log ran.
  std::uint64_t lowered = 0;
  /// The answer was published by patching the previous one; false when a
  /// wide repair decoded the whole array instead.
  bool patched = false;
  /// Participants the last engine run had: 1 for a repair run inline on
  /// the calling thread, the team size for a team repair or a full solve,
  /// 0 when nothing ran (no new version).
  int workers = 0;
  double seconds = 0.0;            ///< parallel-phase time of the last run
};

class IncrementalSolver {
 public:
  /// Validates options and spawns the owned Solver's team. The incremental
  /// path always repairs with the Wasp engine (options.delta and
  /// options.wasp apply); options.algo governs only the full-solve
  /// fallback.
  explicit IncrementalSolver(SsspOptions options);

  IncrementalSolver(const IncrementalSolver&) = delete;
  IncrementalSolver& operator=(const IncrementalSolver&) = delete;

  /// Exact distances for (vg.graph(), source) at vg's current version.
  /// Compacts vg when dirty (the engine consumes the flat CSR), then either
  /// repairs the warm state through the journal or re-solves from scratch.
  /// The returned reference is *answer(): valid until the next solve() call,
  /// or for as long as a copy of answer() is held.
  ///
  /// Cancellation: options().cancel is polled inside the cone walk and by
  /// the engine; a fired token discards the warm state (epoch bump) and
  /// throws SolveCancelledError, leaving the solver reusable.
  const std::vector<Distance>& solve(VersionedGraph& vg, VertexId source);

  /// The last solve()'s answer (null before the first). Never written
  /// again: a later solve() that changes the answer publishes a new buffer,
  /// and one with no new version returns this same buffer.
  [[nodiscard]] std::shared_ptr<const std::vector<Distance>> answer() const {
    return answer_;
  }

  [[nodiscard]] const RepairStats& last_repair() const { return last_; }

  /// The owned Solver (team, metrics, options). Using it directly for other
  /// queries is allowed — the next solve() detects the cold pool via the
  /// epoch stamp and falls back to a full solve.
  [[nodiscard]] Solver& solver() { return solver_; }
  [[nodiscard]] SsspOptions& options() { return solver_.options(); }

 private:
  /// True when the warm array still holds our last answer for (vg, source).
  [[nodiscard]] bool warm_for(const VersionedGraph& vg, VertexId source);

  void full_solve(const Graph& g, VertexId source);
  void repair(VersionedGraph& vg, const Graph& g, VertexId source,
              std::span<const ArcEffect> effects);

  /// In-neighbour view for a directed graph's boundary pass: a cached
  /// structural transpose, rebuilt only when a compaction signals
  /// structural change. Between compactions the flat CSR keeps its slots:
  /// a weight patch rewrites one, a closure leaves a dead arc in it, and a
  /// reopening revives a dead (u, v) slot of the same row. So the cached
  /// transpose stays a superset of the live in-arcs, and an in-neighbour
  /// over a dead arc only adds a harmless seed. Undirected graphs need
  /// none: the cone walk collects their seeds.
  const Graph& transpose_of(const Graph& g);

  Solver solver_;
  /// The calling thread alone: what a repair below kInlineRepairWork runs
  /// on (no worker threads, so run() is a plain call).
  ThreadTeam inline_team_{1};

  // Warm-state binding: which (graph, source, version) the pool's distance
  // array answers, plus the epoch stamp that proves nobody bumped it since.
  // The uid — not the address — is the graph's identity: allocator reuse
  // can reconstruct a different VersionedGraph at the same address.
  const VersionedGraph* bound_graph_ = nullptr;
  std::uint64_t bound_uid_ = 0;
  VertexId bound_source_ = kInvalidVertex;
  std::uint64_t bound_version_ = 0;
  std::uint32_t bound_epoch_ = 0;
  std::uint64_t seen_compactions_ = 0;
  std::uint64_t seen_compacted_arcs_ = 0;

  /// The last exact answer (mirrors the array while the state is warm).
  std::shared_ptr<const std::vector<Distance>> answer_;

  // Scratch reused across repairs (sized to the graph on first use).
  LoweredLog lowered_;
  std::vector<std::uint8_t> in_cone_;
  std::vector<VertexId> cone_;
  std::vector<VertexId> seeds_;
  std::vector<std::uint8_t> seeded_;

  Graph transpose_;  ///< structural in-arc cache for directed graphs
  bool transpose_valid_ = false;

  RepairStats last_;
};

}  // namespace wasp
