// Wasp — Work-Stealing Shortest Path (the paper's contribution, §4).
//
// Architecture per thread (Figure 3):
//  * a list of thread-local buckets, one per coarsened priority level,
//    implemented as linked stacks of chunks (cheap, unsynchronized),
//  * the *current bucket*: a lock-free Chase-Lev deque of chunks holding the
//    priority level the thread is working on, stealable by other threads,
//  * a single thread-local buffer chunk batching both pushes and pops into
//    the current bucket (§4.3: one shared buffer chunk beats split
//    push/pop chunks),
//  * a shared atomic `curr` publishing the thread's current priority level.
//
// Execution (Algorithm 1) is fully asynchronous: a thread drains its current
// bucket, then *steals higher-priority chunks* (Algorithm 2: victims walked
// in NUMA tiers), and only when no better work exists anywhere does it
// advance to its next local bucket — this is the "priority drifting only
// when high-priority work is not available" principle. One deviation from
// the paper: a thread that still holds local work steals only from a
// victim clearly better than its best local bucket `next`, not from any
// victim at least as good (steal_window_admits, curr_board.hpp). The victim
// must lead by max(2, next / 32) levels, a fixed share of the distances
// being settled. The drift window keeps each worker's wavefront on its own
// core; a thread with no local work still steals from anyone.
//
// Optimizations (§4.4): neighborhood decomposition (high-degree adjacency
// split into stealable range chunks), leaf pruning (an in-place degree test,
// Graph::is_leaf), and bidirectional relaxation (pull-before-push for small
// undirected neighborhoods).
//
// Termination: a thread with no work publishes curr = infinity and scans all
// `curr` values (§4.3). We close the classic steal/terminate race with an
// intermediate kStealingPriority state: a thief is never INF while it holds
// a freshly stolen chunk, so "all threads INF" really means no work exists.
// An idle worker that keeps seeing a peer at work parks instead of spinning
// (docs/CONCURRENCY.md).
//
// One engine serves every run (wasp.cpp). The graph is split into F
// fragments, and each worker relaxes against a non-owning view of its own
// fragment: vertex range, CSR rows and that range of the run's one distance
// buffer. F = 1 is the flat run over the whole Graph, with no partition,
// relay or vote. F > 1 is the partitioned mode of docs/NUMA.md. A cold solve
// and a seeded repair differ only in their seeds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "sssp/common.hpp"
#include "support/padded.hpp"
#include "support/thread_team.hpp"
#include "verify/checked_atomic.hpp"

namespace wasp {

/// What a seeded run lowered: one list per worker, holding every vertex
/// whose distance that worker improved, in the order it improved them and
/// with repeats (so the lists' total is the run's kUpdates count). A
/// repair patches its previous answer from these lists instead of copying
/// the whole array (sssp/incremental.hpp). Beside them, the frontier a
/// budget stop left unprocessed (wasp_sssp_seeded), which a later run on
/// the same log resumes from.
///
/// Plain per-worker data, cache-padded: a worker appends only to its own
/// list, the one worker of a budgeted run alone to the frontier, and both
/// are read only after the run returned, ordered by the team join. The
/// WASP_VERIFY hooks make that discipline checkable, as in
/// obs::MetricsShard. Runs append and never clear; reset() clears and
/// keeps the capacity, so a log reused across repairs stops allocating
/// once it has grown.
class LoweredLog {
 public:
  /// Empties every list and the frontier, and sizes the log to `workers`
  /// lists: at least the team size of every run that will write it. Call
  /// between runs only.
  void reset(int workers) {
    WASP_VERIFY_WR(&frontier_);
    frontier_.clear();
    lists_.resize(static_cast<std::size_t>(workers));
    for (auto& l : lists_) {
      WASP_VERIFY_WR(&l.value);
      l.value.clear();
    }
  }

  /// Worker `tid` lowered v. Only worker tid appends to its list.
  void append(int tid, VertexId v) {
    std::vector<VertexId>& l = lists_[static_cast<std::size_t>(tid)].value;
    WASP_VERIFY_WR(&l);
    l.push_back(v);
  }

  [[nodiscard]] int workers() const { return static_cast<int>(lists_.size()); }

  /// Worker `tid`'s list. Read only after the run returned.
  [[nodiscard]] std::span<const VertexId> list(int tid) const {
    const std::vector<VertexId>& l = lists_[static_cast<std::size_t>(tid)].value;
    WASP_VERIFY_RD(&l);
    return l;
  }

  /// Entries over all lists. Read only after the run returned.
  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (int t = 0; t < workers(); ++t) total += list(t).size();
    return total;
  }

  /// A budget stop left v queued. Only the stopped run's one worker calls
  /// it.
  void pause(VertexId v) {
    WASP_VERIFY_WR(&frontier_);
    frontier_.push_back(v);
  }

  /// The vertices a budget stop left queued, repeats included: the seeds a
  /// resume starts from. Read only after the run returned.
  [[nodiscard]] std::span<const VertexId> frontier() const {
    WASP_VERIFY_RD(&frontier_);
    return frontier_;
  }

  /// A run stopped at its work budget with work left (wasp_sssp_seeded).
  /// Read only after the run returned.
  [[nodiscard]] bool stopped() const { return !frontier().empty(); }

  /// Bytes the lists and the frontier hold allocated. Between runs only.
  [[nodiscard]] std::size_t bytes() const {
    std::size_t entries = frontier_.capacity();
    for (const auto& l : lists_) entries += l.value.capacity();
    return entries * sizeof(VertexId);
  }

 private:
  std::vector<CachePadded<std::vector<VertexId>>> lists_;
  std::vector<VertexId> frontier_;
};

/// No work budget: a seeded run goes on until it converges.
inline constexpr std::uint64_t kNoWorkBudget = ~std::uint64_t{0};

/// Runs Wasp from `source` with bucket width `delta` and the given
/// configuration. Knobs must satisfy SsspOptions::validate() (delta >= 1,
/// chunk_capacity in {16,32,64,128,256}).
///
/// ctx.dist must be non-null, sized to g.num_vertices() and filled with
/// kInfDist; it then holds the answer (result.dist stays empty). The run
/// uses config.fragments(team size) fragments. More than one runs the
/// partitioned mode (docs/NUMA.md): each fragment relaxes in its own range
/// of ctx.dist with its own deques, boundary relaxations go through batched
/// remote queues (concurrent/remote_queue.hpp), bidirectional relaxation
/// pulls only from neighbours in the fragment, and a quiescence barrier
/// sits on top of the termination scan. With ctx.partitions set (Solver
/// does), the fragments are built on the first solve of a graph and reused
/// while its stamp, the fragment count, the team size and the topology stay
/// the same. Every mode converges to the same exact-distance fixed point.
SsspResult wasp_sssp(const Graph& g, VertexId source, Weight delta,
                     const WaspConfig& config, RunContext& ctx);

/// Warm-start multi-source variant backing incremental repair
/// (sssp/incremental.hpp): instead of seeding one source at distance 0 into
/// an all-infinity array, the caller pre-loads ctx.dist with valid *upper
/// bounds* (a repair's re-priced paths, or kInfDist) and names the frontier —
/// every vertex whose current bound may improve a neighbour. The engine
/// relaxes monotonically from the seeds exactly like a cold run relaxes
/// from the source, so it converges to the same fixed point: exact
/// distances, in work proportional to the region the seeds reach with
/// improvements, not the graph.
///
/// Contract: ctx.dist must be non-null, sized to g.num_vertices(), and hold
/// admissible bounds (never below the true distance). Seeds with an
/// infinite bound are skipped (nothing can relax from them — and their
/// bucket level would be meaningless). An empty (or all-infinite) seed set
/// returns the current bounds unchanged. The run is always one fragment
/// over ctx.dist. Same knob contract as wasp_sssp.
///
/// The run records every vertex it lowers in `log`, which the caller
/// reset() to at least the team size; a run appends and clears nothing. It
/// copies nothing out: result.dist stays empty and the answer is ctx.dist
/// itself, which differs from the pre-loaded bounds exactly at the logged
/// vertices.
///
/// A run on a one-participant team stops before it processes vertex
/// `budget` + 1 (ignored on a larger team). The stop falls between two
/// vertices: the worker hands every entry still queued in its buffer,
/// deque and buckets that no later lowering superseded to log.frontier()
/// and leaves the way a cancelled run does, firing no on_termination. With
/// work left, log.stopped() reads true and the array holds upper bounds
/// short of the answer; a run from log.frontier() into the same log
/// converges to the answer. With none left the array is the answer.
/// Invariant: every processed vertex relaxed all its arcs at the distance
/// it was processed with, and any later lowering re-enqueued it, so the
/// queued entries form a complete frontier: an arc that can still improve
/// its head starts at a queued vertex. A range chunk hands over its vertex
/// once, and the resume relaxes that vertex's whole adjacency, a safe
/// superset of the range. The budget fits the one-worker run only because
/// it never steals: no work sits in a stolen chunk.
SsspResult wasp_sssp_seeded(const Graph& g, std::span<const VertexId> seeds,
                            Weight delta, const WaspConfig& config,
                            RunContext& ctx, LoweredLog& log,
                            std::uint64_t budget = kNoWorkBudget);

}  // namespace wasp
