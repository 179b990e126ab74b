// Incremental SSSP repair over versioned graphs (the Ramalingam–Reps-style
// counterpart to graph/delta.hpp).
//
// An IncrementalSolver binds to one (VersionedGraph, source) pair and keeps
// the pooled tentative-distance array of its last answer *warm*.
// When the graph moves forward by a batch, solve() replays the journal
// instead of recomputing:
//
//  1. Classification. Every journaled ArcEffect is either a decrease
//     (insert / weight drop — some path may have gotten cheaper; the arc's
//     source becomes a relaxation seed) or an increase (erase / weight rise
//     — distances that rode the arc may be invalid).
//  2. Cone walk. For each increase whose arc was admissible under the warm
//     distances (dist[u] + old_w <= dist[v], a conservative
//     shortest-path-parent predicate), the head v starts a cone walk:
//     every vertex reachable from it through admissible arcs may have
//     depended on the changed arc. Over-approximation is safe (extra
//     work), under-approximation is not. The walk re-prices the cone
//     instead of resetting it to infinity. Heads go in order of warm
//     distance. A head's bound is its tail's value plus the largest weight
//     the journal's increases gave the arc (infinity once closed), which is
//     at least the arc's current weight. A vertex the walk admits from x
//     gets bound(x) + w at the current w. Each cone vertex thus holds an
//     old path re-priced, an upper bound on its new distance. Admission
//     reads only warm distances and current weights, so any scan order
//     admits the same cone: the walk goes depth first over a stack, and
//     reads bounds from a plain per-solver array, not the atomic one.
//  3. Seeding. The repair frontier is the cone's in-boundary (intact
//     vertices with an arc into the cone), every decrease source, and
//     every cone vertex whose bound improves an out-neighbour. An
//     undirected graph's out-arcs are its in-arcs, so the cone walk
//     collects the boundary and compares both directions of each arc it
//     scans; a directed graph takes a second pass over a cached transpose
//     and the cone's out-arcs.
//
//     The engine (wasp_sssp_seeded) converges to the exact distances from
//     any state that keeps two invariants, and the repair hands it one:
//      (a) every value is at least the exact distance. Outside the cone a
//          warm distance is the length of an old tree path that no
//          increase touched. A bound adds current (or larger) arc weights
//          to such values or to other bounds.
//      (b) the tail of every arc that can still improve its head is
//          seeded. Between two vertices outside the cone only a decreased
//          arc can, and its source is seeded. An arc into the cone has a
//          boundary tail, and a cone vertex whose bound improves a
//          neighbour is seeded itself.
//     (a) fails only when a head was priced from a tail outside the cone
//     that a later head's walk then admitted: the tail's warm value may be
//     stale. Heads in order of warm distance leave that possible only
//     through zero-weight ties. Then the whole cone is stored at infinity,
//     and the boundary and the decrease sources alone seed it.
//  4. Repair. wasp_sssp_seeded runs the normal work-stealing engine over
//     the warm array — no acquire and no fill, so untouched vertices cost
//     nothing —
//     in work proportional to the improvements left, not the cone. The
//     width follows the work done, not a guess from the cone: every repair
//     starts on the calling thread alone, and one that reaches
//     kInlineRepairWork processed vertices pauses and escalates to the
//     Solver's team, which resumes from the paused frontier: every entry
//     the inline run still had queued. Both invariants still hold there:
//     every value is the length of some path, and an arc that can still
//     improve its head starts at a queued vertex (wasp_sssp_seeded), so no
//     vertex the inline run processed is processed again for it.
//  5. Publish. The engine logs every vertex it lowers (LoweredLog; the
//     team run of an escalated repair appends to the inline run's log), so
//     the repair's change set, the entries where the new answer may differ
//     from the previous one, is its cone plus its log. The new answer goes
//     into a recycled buffer (below). A buffer exactly one publish behind
//     differs from the previous answer only at the previous change set, so
//     re-reading that set and this one from the array makes it the new
//     answer: O(previous + current change set), not O(V). Any other
//     buffer first takes a copy of the previous answer and then this
//     repair's change set. A wide repair, whose change set passes a fixed
//     share of n, copies the whole array into the buffer instead. A full
//     solve publishes its own result and leaves the change set unknown.
//
// Answers are immutable and shared (sssp/answer.hpp): each solve() that
// changes the answer publishes a new one, and answer() hands out a
// reference to its buffer, never a copy. A holder of an earlier answer
// keeps reading its own version unchanged, so a cache (QueryService) and
// its clients hold the repairer's buffer itself. When the last holder
// drops a buffer, it returns to this solver's free list (at most two
// buffers, each tagged with the publish generation of its contents), and a
// later repair rewrites it. A reader that drops each answer within two
// publishes thus keeps the patch path; one that keeps every answer makes
// each repair copy the previous answer whole. A buffer released after its
// solver is gone is simply freed.
//
// Anything that breaks the warm contract (first query, source change,
// journal trimmed past our version, the underlying solver used for another
// query in between, a graph swap) falls back to a full solve through the
// owned wasp::Solver; last_repair().full_solve records which path ran. A
// foreign query is caught by the pool's reset generation
// (DistancePool::generation), which every acquire moves.
//
// Correctness anchor (tests/test_incremental.cpp): distances after every
// batch are bit-identical to a from-scratch solve.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/delta.hpp"
#include "graph/graph.hpp"
#include "sssp/answer.hpp"
#include "sssp/common.hpp"
#include "sssp/solver.hpp"
#include "sssp/wasp.hpp"
#include "support/thread_team.hpp"

namespace wasp {

/// Vertices a repair's engine may process on the calling thread alone.
/// Every repair starts there. One that reaches this many with work left
/// pauses, and the Solver's team resumes from the paused frontier (ski
/// rental: the run works alone until it has spent about what a team launch
/// costs). A team run pays a condvar wake, idle peers' steal and
/// termination scans, and a join. A chain, with no parallelism to share,
/// stays inline; a wide lowering pays at most this much extra.
/// `dyn_updates --cone-sweep --graphs USA --scale 1 --threads 4 --reps 9`
/// (a 102,400-vertex road grid, Δ = 1024, engine medians, seeds 1-3) on a
/// 4-vCPU Xeon VM: one worker processed a vertex in 80-100 ns. Built with
/// this constant at 0, so that every repair escalates after one vertex, a
/// team run with under 100 vertices of work took 0.08-0.22 ms, and the
/// team beat one worker at 3,212 and 5,032 processed vertices but not at
/// 5,056 or 8,221; from 14,670 up it always did. Escalating just past the
/// budget cost 0.11-0.18 ms more than one worker (budget 1,024 at 1,337
/// and 2,060 processed, 2,048 at 2,060), about 1,200-2,000 vertices of
/// inline work, which is where ski rental puts the budget. Summed over
/// the rows from 1,337 to 17,113 processed, the rule took 4.13 ms at
/// 1,024, 3.66 ms at 2,048 and 3.68 ms at 4,096 (one run each). At 2,048,
/// repairs that processed up to 1,337 ran at one-worker speed whatever
/// their cone (cones of 5,386-7,327 stayed inline), and escalated ones ran
/// at 0.33-0.70 of one worker from 23,744 up.
inline constexpr std::uint64_t kInlineRepairWork = 2048;

/// A repair publishes by re-reading entries from the array while the
/// entries it re-reads stay within n / kPatchShare; past that it copies
/// the whole array into the buffer (AtomicDistances::snapshot_into). A
/// recycled buffer one publish behind re-reads the previous and the
/// current change set; any other buffer copies the previous answer and
/// re-reads the current set. Re-reading is one scattered load per entry;
/// the whole-array copy is one pass over the atomic array. Medians of 41
/// on a 4-vCPU Xeon VM, taken when each entry was an 8-byte tagged word
/// that the whole-array pass had to decode (now a plain 4-byte distance)
/// (random entries, into a reused buffer, with and without an evicting
/// 32 MB sweep before each run): at n = 102,400 a decode took 88 us warm
/// and 148 us cold, and re-reading n/8 entries 26 / 59 us, n/4 49 / 95 us
/// and n/2 113 / 151 us; at n = 131,072 a decode took 109 / 141 us, and
/// n/8 42 / 84 us, n/4 87 / 143 us and n/2 181 / 236 us. A copy of the
/// previous answer took 11-45 us. The two cross between n/4 and n/2, so a
/// quarter keeps every patch at or below a whole-array pass (the copy path
/// at n/4 reads 64-144 us). In perfbench's live_traffic, road ticks
/// (change sets of about 1,700 of 102,400 vertices) patch, and
/// chain-forest ticks (cones of about 74,000 of 131,072) copy the array.
inline constexpr std::size_t kPatchShare = 4;

/// What the last solve() did, for observability and tests. The same numbers
/// feed the kRepair* counters in the solver's MetricsRegistry.
struct RepairStats {
  bool full_solve = true;          ///< fell back to a from-scratch solve
  std::uint64_t batches = 0;       ///< versions caught up by the repair
  std::uint64_t effects = 0;       ///< journaled arc effects replayed
  std::uint64_t cone_vertices = 0; ///< vertices the cone walk re-priced
  std::uint64_t seed_vertices = 0; ///< warm seeds handed to the engine
  /// Entries the engine logged (LoweredLog), repeats included: the run's
  /// kUpdates count.
  std::uint64_t lowered = 0;
  /// The answer was published by patching entries into a buffer; false
  /// when a wide repair copied the whole array instead.
  bool patched = false;
  /// The patched buffer was recycled exactly one publish behind, so only
  /// the previous and this repair's change sets were rewritten.
  bool recycled = false;
  /// Entries the publish wrote into the new answer: the previous plus the
  /// current change set when recycled; n plus the current change set for a
  /// copy-then-patch; n for a whole-array copy. 0 on a full solve.
  std::uint64_t published_entries = 0;
  /// A zero-weight tie let a head be priced from a stale tail, so the cone
  /// was stored at infinity instead of at its re-priced bounds.
  bool cone_reset = false;
  /// Participants the last engine run ended on: 1 for a repair that ran
  /// inline on the calling thread, the team size for an escalated repair
  /// (its inline run paused at kInlineRepairWork, the team finished it) or
  /// a full solve, 0 when nothing ran (no new version).
  int workers = 0;
  /// Parallel-phase time of the engine: a repair's inline run plus, when
  /// it escalated, its team run.
  double seconds = 0.0;
  /// A repair's wall time splits into walk_seconds (classification, cone
  /// walk and seeding, up to the engine call), the engine's `seconds`, and
  /// publish_seconds (from the engine's return to the published answer).
  /// The three sum to the repair's wall time less the engine's setup and
  /// join around its parallel phase; both are 0 on a full solve.
  double walk_seconds = 0.0;
  double publish_seconds = 0.0;
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
  /// The returned reference is the solver's own answer, valid until the
  /// next solve() call; a copy of it (or answer()) keeps the buffer for as
  /// long as it is held.
  ///
  /// Cancellation: options().cancel is polled inside the cone walk and by
  /// the engine; a fired token discards the warm state (the next solve is
  /// a full one) and throws SolveCancelledError, leaving the solver
  /// reusable.
  const Answer& solve(VersionedGraph& vg, VertexId source);

  /// The last solve()'s answer (empty before the first). Never written
  /// while held: a later solve() that changes the answer publishes another
  /// buffer, and one with no new version returns this same buffer.
  [[nodiscard]] Answer answer() const { return answer_; }

  [[nodiscard]] const RepairStats& last_repair() const { return last_; }

  /// The owned Solver (team, metrics, options). Using it directly for other
  /// queries is allowed — the next solve() detects the cold pool via the
  /// reset generation and falls back to a full solve.
  [[nodiscard]] Solver& solver() { return solver_; }
  [[nodiscard]] SsspOptions& options() { return solver_.options(); }

 private:
  /// True when the warm array still holds our last answer for (vg, source).
  [[nodiscard]] bool warm_for(const VersionedGraph& vg, VertexId source);

  void full_solve(const Graph& g, VertexId source);
  void repair(VersionedGraph& vg, const Graph& g, VertexId source,
              std::span<const ArcEffect> effects);

  /// An answer's storage, tagged with the publish generation it holds.
  struct AnswerBuffer {
    std::vector<Distance> dist;
    std::uint64_t generation = 0;
  };
  /// The free list released buffers return to (defined in incremental.cpp).
  class BufferPool;
  /// Publishes `buffer` as the next generation's answer. `changed_all`
  /// says the change set since the previous answer is unknown; otherwise
  /// it is changed_.
  void publish(std::unique_ptr<AnswerBuffer> buffer, bool changed_all);

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
  /// The calling thread alone: where every repair starts (no worker
  /// threads, so run() is a plain call).
  ThreadTeam inline_team_{1};

  // Warm-state binding: which (graph, source, version) the pool's distance
  // array answers, plus the pool generation that proves nobody acquired it
  // since.
  // The uid — not the address — is the graph's identity: allocator reuse
  // can reconstruct a different VersionedGraph at the same address.
  const VersionedGraph* bound_graph_ = nullptr;
  std::uint64_t bound_uid_ = 0;
  VertexId bound_source_ = kInvalidVertex;
  std::uint64_t bound_version_ = 0;
  std::uint64_t bound_generation_ = 0;
  std::uint64_t seen_compactions_ = 0;
  std::uint64_t seen_compacted_arcs_ = 0;

  /// The last exact answer (mirrors the array while the state is warm).
  Answer answer_;
  /// Publishes so far: answer_ holds generation_.
  std::uint64_t generation_ = 0;
  /// The entries where answer_ may differ from generation_ - 1 (cone plus
  /// log, repeats included), unless changed_all_.
  std::vector<VertexId> changed_;
  bool changed_all_ = true;
  /// Released buffers; each answer's deleter holds it weakly.
  std::shared_ptr<BufferPool> pool_;

  /// A journaled increase of the arc (tail, head). An admissible one makes
  /// `head` a cone head, priced from `tail`.
  struct ConeHead {
    VertexId head;
    VertexId tail;
    Weight new_w;  ///< kDeadWeight for a closure
    bool admissible;
  };

  // Scratch reused across repairs (sized to the graph on first use).
  /// The repair's log: the inline run's list 0 and paused frontier, then
  /// an escalated repair's team run's lists.
  LoweredLog lowered_;
  std::vector<ConeHead> heads_;
  std::vector<VertexId> priced_from_;  ///< tails outside the cone when read
  std::vector<std::uint8_t> in_cone_;
  /// A cone vertex's bound; read only where in_cone_ is set.
  std::vector<Distance> bound_;
  std::vector<VertexId> cone_;
  std::vector<VertexId> stack_;  ///< admitted cone vertices not yet scanned
  std::vector<VertexId> seeds_;
  std::vector<std::uint8_t> seeded_;

  Graph transpose_;  ///< structural in-arc cache for directed graphs
  bool transpose_valid_ = false;

  RepairStats last_;
};

}  // namespace wasp
