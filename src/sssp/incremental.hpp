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
//     the warm distances (dist[u] + old_w <= dist[v], the conservative
//     parent predicate from paths.hpp), the head v starts a cone walk:
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
//     in work proportional to the cone, not the graph.
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
#include <span>
#include <vector>

#include "graph/delta.hpp"
#include "graph/graph.hpp"
#include "sssp/common.hpp"
#include "sssp/solver.hpp"

namespace wasp {

/// What the last solve() did, for observability and tests. The same numbers
/// feed the kRepair* counters in the solver's MetricsRegistry.
struct RepairStats {
  bool full_solve = true;          ///< fell back to a from-scratch solve
  std::uint64_t batches = 0;       ///< versions caught up by the repair
  std::uint64_t effects = 0;       ///< journaled arc effects replayed
  std::uint64_t cone_vertices = 0; ///< vertices invalidated to infinity
  std::uint64_t seed_vertices = 0; ///< warm seeds handed to the engine
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
  /// The returned reference stays valid until the next solve() call.
  ///
  /// Cancellation: options().cancel is polled inside the cone walk and by
  /// the engine; a fired token discards the warm state (epoch bump) and
  /// throws SolveCancelledError, leaving the solver reusable.
  const std::vector<Distance>& solve(VersionedGraph& vg, VertexId source);

  /// Distances of the last solve() (empty before the first).
  [[nodiscard]] const std::vector<Distance>& distances() const {
    return dist_;
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
  /// structural change (weight patches leave the in-arc structure intact).
  /// Undirected graphs need none: the cone walk collects their seeds.
  const Graph& transpose_of(const Graph& g);

  Solver solver_;

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

  std::vector<Distance> dist_;  ///< last exact snapshot (mirrors the array)

  // Scratch reused across repairs (sized to the graph on first use).
  std::vector<std::uint8_t> in_cone_;
  std::vector<VertexId> cone_;
  std::vector<VertexId> seeds_;
  std::vector<std::uint8_t> seeded_;

  Graph transpose_;  ///< structural in-arc cache for directed graphs
  bool transpose_valid_ = false;

  RepairStats last_;
};

}  // namespace wasp
