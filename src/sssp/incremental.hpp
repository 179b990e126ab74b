// Incremental SSSP repair over versioned graphs (the Ramalingam–Reps-style
// counterpart to graph/delta.hpp): the state behind Solver's versioned
// solve() (sssp/solver.hpp).
//
// That solve() turns the caller's exact answer for a (VersionedGraph,
// source) pair at some version into the exact answer at the graph's current
// version. The Solver keeps no binding to a graph or a source: the caller's
// (answer, version) pair is the repair's input, and the caller
// (QueryService's uid-keyed cache) decides which answer belongs to which
// graph. Instead of recomputing, the repair replays the journal since that
// version over the answer, in a working buffer that becomes the new answer:
//
//  0. Working buffer. When `from` is the last answer this Solver published
//     and the buffer one publish behind it is free, that buffer differs
//     from `from` only at the previous change set, and copying those
//     entries patches it forward (kRepairRecycled). Otherwise `from` is
//     copied in whole, one memcpy (kRepairArrayCopies, the repair's one
//     epoch sweep). kRepairPublishedEntries counts the entries written.
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
//     admits the same cone: the walk goes depth first over a stack. It
//     stores each bound into the working buffer, which then reads as the
//     bound inside the cone and `from` outside it. A one-byte stamp per
//     vertex, new for every repair, marks the cone; it is cleared in full
//     only when it wraps.
//  3. Seeding. The repair frontier is the cone's in-boundary (intact
//     vertices with an arc into the cone), every decrease source, and
//     every cone vertex whose bound improves an out-neighbour. An
//     undirected graph's out-arcs are its in-arcs, so the cone walk
//     collects the boundary and compares both directions of each arc it
//     scans; a directed graph takes a second pass over the graph's in-arc
//     index (VersionedGraph::in_arcs, built by the first repair after a
//     compaction and shared by every Solver) and the cone's out-arcs. An
//     index build is timed apart from the walk (kRepairInArcBuildNs).
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
//     and the boundary and the decrease sources alone seed it
//     (kRepairConeResets).
//  4. Repair. wasp_sssp_seeded runs the normal work-stealing engine over
//     the working buffer through atomic_ref (sssp/common.hpp), so untouched
//     vertices cost nothing, in work proportional to the improvements
//     left, not the cone. Every repair starts on the calling thread alone,
//     and one that reaches kInlineRepairWork processed vertices pauses and
//     escalates to the Solver's team (kRepairEscalations), which resumes
//     from the paused frontier: every entry the inline run still had
//     queued. Both invariants still hold there: every value is the length
//     of some path, and an arc that can still improve its head starts at a
//     queued vertex (wasp_sssp_seeded), so no vertex the inline run
//     processed is processed again for it.
//  5. Publish. The working buffer is the new answer as it stands. The
//     engine logs every vertex it lowers (LoweredLog; an escalated repair's
//     team run appends to the inline run's log), so the change set, where
//     the new answer may differ from `from`, is the cone plus the log. It
//     is kept for the next repair's step 0 unless it passes n / kPatchShare.
//     A full solve publishes the buffer its run relaxed in, change set
//     unknown.
//
// Answers are immutable and shared (sssp/answer.hpp): a solve() that
// changes the answer publishes a new buffer, and a cache (QueryService) and
// its clients hold that buffer itself. When the last holder drops it, it
// returns to the Solver's free list (BufferPool) for a later repair or
// cold solve to rewrite; released after the Solver is gone, it is freed. A
// reader that drops each answer within one publish keeps the patch path.
// A repair that throws (a cancel, an engine failure) frees its working
// buffer unpublished, so no later repair patches against it.
//
// Two situations fall back to a full solve with options().algo, under the
// same busy guard: no answer (an empty one) and an answer older than
// vg.journal_floor(). last_metrics() counts which path ran
// (kRepairFullSolves) and everything else the solve did.
//
// Correctness anchor (tests/test_incremental.cpp): distances after every
// batch are bit-identical to a from-scratch solve.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "graph/delta.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "sssp/answer.hpp"
#include "sssp/common.hpp"
#include "sssp/solver.hpp"
#include "sssp/wasp.hpp"
#include "support/thread_safety.hpp"
#include "support/thread_team.hpp"

namespace wasp {

/// Vertices a repair's engine may process on the calling thread alone.
/// Every repair starts there. One that reaches this many with work left
/// pauses, and the Solver's team resumes from the paused frontier (ski
/// rental: the run works alone until it has spent about what a team launch
/// costs). A team run pays a condvar wake, idle peers' steal and
/// termination scans, and a join. A chain, with no parallelism to share,
/// stays inline; a wide lowering pays at most this much extra. The
/// `dyn_updates --cone-sweep` measurements behind 2,048 are in
/// docs/PERFORMANCE.md, "Repair width by work done".
inline constexpr std::uint64_t kInlineRepairWork = 2048;

/// A repair patches the buffer one publish behind forward while the
/// previous change set stays within n / kPatchShare; past that it copies
/// `from` whole (one memcpy), and a change set past it is not kept. On a
/// 4-vCPU Xeon VM a copy of 131,072 entries cost about as much as patching
/// a sixteenth of them at random, or an eighth in order, in cache or not
/// (docs/PERFORMANCE.md, "Repairing in the buffer you publish").
inline constexpr std::size_t kPatchShare = 16;

/// The Solver's one pool: buffers whose last Answer was dropped, for a
/// repair or a cold solve to rewrite. Each published answer's deleter holds
/// the pool weakly and hands its buffer back from whichever thread dropped
/// it; the mutex orders that thread's last reads before the next writer's
/// writes. Two slots serve a reader that drops each answer within one
/// publish: the buffer a repair patches and the one the reader holds.
class Solver::BufferPool {
 public:
  /// A generation no publish reaches: the tag of a buffer that holds no
  /// answer, and take()'s argument when any free buffer will do.
  static constexpr std::uint64_t kNoGeneration = ~std::uint64_t{0};

  /// An answer's deleter: returns its buffer to the pool, or frees it when
  /// the Solver, and with it the pool, is gone.
  struct Return {
    std::weak_ptr<BufferPool> pool;
    AnswerBuffer* buffer;

    void operator()(const std::vector<Distance>* /*dist*/) const noexcept {
      std::unique_ptr<AnswerBuffer> owned(buffer);
      if (const std::shared_ptr<BufferPool> p = pool.lock())
        p->put(std::move(owned));
    }
  };

  /// Keeps `buffer` in a free slot, or in place of an older one; whichever
  /// is left over is freed after the lock is released.
  void put(std::unique_ptr<AnswerBuffer> buffer) noexcept {
    MutexLock lock(mu_);
    std::unique_ptr<AnswerBuffer>* oldest = &free_[0];
    for (std::unique_ptr<AnswerBuffer>& slot : free_) {
      if (slot == nullptr) {
        oldest = &slot;
        break;
      }
      if (slot->generation < (*oldest)->generation) oldest = &slot;
    }
    if (*oldest == nullptr || (*oldest)->generation < buffer->generation)
      oldest->swap(buffer);
  }

  /// A free buffer, the one tagged `generation` if there is one; null when
  /// the list is empty.
  std::unique_ptr<AnswerBuffer> take(std::uint64_t generation) {
    MutexLock lock(mu_);
    std::unique_ptr<AnswerBuffer>* pick = nullptr;
    for (std::unique_ptr<AnswerBuffer>& slot : free_) {
      if (slot != nullptr &&
          (pick == nullptr || slot->generation == generation))
        pick = &slot;
    }
    return pick != nullptr ? std::move(*pick) : nullptr;
  }

  /// Bytes of the distances the free buffers hold.
  [[nodiscard]] std::uint64_t bytes() {
    MutexLock lock(mu_);
    std::uint64_t total = 0;
    for (const std::unique_ptr<AnswerBuffer>& slot : free_)
      if (slot != nullptr) total += slot->dist.capacity() * sizeof(Distance);
    return total;
  }

 private:
  Mutex mu_;
  std::array<std::unique_ptr<AnswerBuffer>, 2> free_ WASP_GUARDED_BY(mu_);
};

/// A Solver's repair state, built on its first versioned solve(). Private
/// to Solver, which calls it under the busy guard it already holds.
class Solver::Repair {
 public:
  /// Publishes into buffers that return to `buffers`, the Solver's pool.
  explicit Repair(std::shared_ptr<BufferPool> buffers)
      : pool_(std::move(buffers)) {}

  /// Solves (g, source) through solver.dispatch() and publishes the buffer
  /// it ran in; the report is the cold door's with kRepairFullSolves = 1.
  Answer full_solve(Solver& solver, const Graph& g, VertexId source);
  /// Repairs `from`, exact at `from_version`, over the journal's `effects`
  /// since then (steps 0-5 above) and publishes the result.
  Answer repair(Solver& solver, VersionedGraph& vg, const Graph& g,
                VertexId source, const Answer& from,
                std::uint64_t from_version,
                std::span<const ArcEffect> effects);
  /// Bytes of the scratch kept between repairs (the solver_state_bytes
  /// gauge's repair share).
  [[nodiscard]] std::uint64_t scratch_bytes() const;

 private:
  /// Publishes `buffer` as the next generation's answer, whose change set
  /// is changed_ unless `changed_all` says it is unknown.
  void publish(std::unique_ptr<AnswerBuffer> buffer, bool changed_all);
  /// Step 0: a buffer equal to `from`, patched or copied (counted).
  std::unique_ptr<AnswerBuffer> working_copy(const Answer& from,
                                             obs::MetricsShard& shard);

  /// The calling thread alone: where every repair starts (no worker
  /// threads, so run() is a plain call).
  ThreadTeam inline_team_{1};

  /// The last answer published.
  Answer answer_;
  /// Publishes so far: answer_ holds generation_.
  std::uint64_t generation_ = 0;
  /// The entries where answer_ may differ from generation_ - 1 (cone plus
  /// log, repeats included), unless changed_all_.
  std::vector<VertexId> changed_;
  bool changed_all_ = true;
  /// The Solver's pool; each answer's deleter holds it weakly.
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
  /// v is in this repair's cone when in_cone_[v] == stamp_.
  std::vector<std::uint8_t> in_cone_;
  std::uint8_t stamp_ = 0;
  std::vector<VertexId> cone_;
  std::vector<VertexId> stack_;  ///< admitted cone vertices not yet scanned
  std::vector<VertexId> seeds_;
  std::vector<std::uint8_t> seeded_;
};

}  // namespace wasp
