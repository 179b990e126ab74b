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
// victim at least two levels better than its best local bucket, not from
// any victim at least as good (steal_window_admits, curr_board.hpp). The
// one-bucket drift window keeps each worker's wavefront on its own core;
// a thread with no local work still steals from anyone.
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
// fragment: vertex range, CSR rows and distances. F = 1 is the flat run over
// the whole Graph and the pooled distance array, with no partition, relay
// or vote. F > 1 is the partitioned mode of docs/NUMA.md. A cold solve and
// a seeded repair differ only in their seeds.
#pragma once

#include <cstddef>
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
/// repair patches its previous answer from these lists instead of decoding
/// the whole array (sssp/incremental.hpp).
///
/// Plain per-worker data, cache-padded: a worker appends only to its own
/// list, and the lists are read only after the run returned, ordered by the
/// team join. The WASP_VERIFY hooks make that discipline checkable, as in
/// obs::MetricsShard. The run clears the lists and keeps their capacity, so
/// a log reused across repairs stops allocating once it has grown.
class LoweredLog {
 public:
  /// Empties every list and sizes the log to `workers` lists. Call between
  /// runs only.
  void reset(int workers) {
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

 private:
  std::vector<CachePadded<std::vector<VertexId>>> lists_;
};

/// Runs Wasp from `source` with bucket width `delta` and the given
/// configuration. The chaos engine installed on workers is ctx.chaos. Knobs
/// must satisfy SsspOptions::validate() (delta >= 1, chunk_capacity in
/// {16,32,64,128,256}).
///
/// The run uses config.fragments(team size) fragments. One fragment runs on
/// ctx.distances(). More than one runs the partitioned mode (docs/NUMA.md):
/// per-fragment distance shards and deques, boundary relaxations through
/// batched remote queues (concurrent/remote_queue.hpp), bidirectional
/// relaxation off (it would read remote shards), and a quiescence barrier
/// on top of the termination scan. With ctx.partitions set (Solver does),
/// the fragments and shards are built on the first solve of a graph and
/// reused while its stamp, the fragment count, the team size and the
/// topology stay the same. Every mode converges to the same exact-distance
/// fixed point.
SsspResult wasp_sssp(const Graph& g, VertexId source, Weight delta,
                     const WaspConfig& config, RunContext& ctx);

/// Warm-start multi-source variant backing incremental repair
/// (sssp/incremental.hpp): instead of seeding one source at distance 0 into
/// an all-infinity array, the caller pre-loads ctx.dist with valid *upper
/// bounds* (kInfDist for invalidated vertices) and names the frontier —
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
/// Without `log`, result.dist is a decoded copy of the whole array. With
/// `log`, the run clears it to one list per worker, records every vertex it
/// lowers there, and skips that O(V) decode: result.dist stays empty and
/// the answer is ctx.dist itself, which differs from the pre-loaded bounds
/// exactly at the logged vertices.
SsspResult wasp_sssp_seeded(const Graph& g, std::span<const VertexId> seeds,
                            Weight delta, const WaspConfig& config,
                            RunContext& ctx, LoweredLog* log = nullptr);

}  // namespace wasp
