// Partitioned Wasp (ROADMAP item 4, docs/NUMA.md): fragment-local frontiers
// with batched remote relaxation queues.
//
// The graph is split into per-NUMA-node fragments (graph/partition.hpp).
// Inside a fragment, today's asynchronous deque protocol runs unchanged:
// thread-local buckets, a stealable current-bucket deque, `curr` publication,
// NUMA-tiered stealing — except victims are restricted to the fragment's own
// workers, so steal CAS traffic never crosses a node boundary. Each fragment
// owns a private distance shard (first-touched by its leader); a relaxation
// whose target lives in another fragment becomes a {vertex, dist} record in a
// batched remote queue (concurrent/remote_queue.hpp) instead of a CAS on a
// remote cache line. Batches are published when full and at bucket
// boundaries; destination workers drain their fragment's channel at round
// boundaries and inside termination sweeps.
//
// Termination extends the §4.3 double-scan with a quiescence barrier: a
// passing scan (every board slot idle, zero in-flight records, stable
// epoch) casts a revocable VOTE instead of exiting, and workers leave
// together once all p votes are in. Flat wasp tolerates a worker exiting on
// a stale verdict — the remaining workers finish the work and the team join
// covers completion — but a partitioned worker's early exit would strand
// its fragment's inbound channel (no other member drains it), hanging the
// survivors. The barrier makes that impossible: a sweep revokes its vote
// first, so a voted worker provably holds no work, and a published batch
// keeps its publisher unvoted until every record is applied — a full vote
// count is therefore true global quiescence (argument at terminate()).
//
// The fixed point is the same exact-distance solution as flat wasp_sssp
// (monotone relaxation converges regardless of routing); the partition suite
// pins bit-identical snapshots across synthetic topologies and chaos
// schedules. Bidirectional relaxation is disabled (it would read remote
// shards); leaf pruning and neighborhood decomposition apply unchanged.
//
// The fragments and their shards are per-graph state: under a Solver they
// live in its PartitionCache (sssp/common.hpp), so only the first solve of a
// graph builds them and later solves reset the shards with an O(1) epoch
// bump.
#include "sssp/wasp.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <thread>
#include <vector>

#include "concurrent/chase_lev_deque.hpp"
#include "concurrent/chunk.hpp"
#include "concurrent/remote_queue.hpp"
#include "graph/partition.hpp"
#include "sssp/curr_board.hpp"
#include "support/errors.hpp"
#include "support/prefetch.hpp"
#include "support/random.hpp"
#include "support/thread_team.hpp"
#include "support/timer.hpp"
#include "verify/checked_atomic.hpp"
#include "verify/scheduler.hpp"

namespace wasp {

namespace {

using CId = obs::CounterId;
using EK = obs::EventKind;

/// Same role as in wasp.cpp: a thief holding freshly stolen or freshly
/// drained remote work is never board-idle.
constexpr std::uint64_t kStealingPriority = kInfPriority - 1;

/// Sentinel neighbour range meaning "the whole adjacency list".
constexpr std::uint32_t kFullRange = ~std::uint32_t{0};

/// Thread-local bucket list (identical to wasp.cpp's; the partitioned worker
/// is a separate instantiation so the flat engine's internals stay private).
template <typename ChunkT>
struct BucketList {
  std::vector<ChunkT*> head;
  std::uint64_t min_hint = kInfPriority;

  ChunkT*& at(std::uint64_t level) {
    if (level >= head.size()) {
      const std::size_t cap = std::max<std::size_t>(
          64, std::bit_ceil(static_cast<std::size_t>(level) + 1));
      head.resize(cap, nullptr);
    }
    return head[level];
  }

  std::uint64_t min_non_empty() {
    for (std::uint64_t l = min_hint; l < head.size(); ++l) {
      if (head[l] != nullptr) {
        min_hint = l;
        return l;
      }
    }
    min_hint = kInfPriority;
    return kInfPriority;
  }
};

/// Run-wide shared state. The curr board, steal epoch, and relay network are
/// global (termination is a whole-run property); deques, victim tiers, and
/// distance shards are per-fragment.
template <typename ChunkT>
struct PartShared {
  const Graph& graph;
  const GraphPartition& part;
  /// Per-fragment distance shards, owned by the fragments' cache entry and
  /// constructed by each fragment's leader when the entry was built (the
  /// constructor's sweep is the first touch).
  const std::vector<std::unique_ptr<AtomicDistances>>& shards;
  Weight delta;
  const WaspConfig& config;
  RunContext& ctx;
  int num_workers;
  CurrBoard curr;  ///< one global board over all workers of all fragments
  std::vector<std::unique_ptr<ChaseLevDeque<ChunkT*>>> deques;  // per worker
  BasicChunkArena<ChunkT> arena;
  RemoteRelayNetwork net;  ///< per-fragment inbound channels + in-flight count
  std::vector<int> frag_of;                ///< worker -> fragment
  std::vector<std::vector<int>> members;   ///< fragment -> worker tids
  std::vector<int> local_idx;              ///< worker -> index in its members
  std::vector<int> node_of;                ///< worker -> NUMA node
  /// Victim tiers per fragment, over that fragment's members only (indices
  /// are member-local; translate through `members`).
  std::vector<std::unique_ptr<VictimTiers>> frag_tiers;
  /// Same role as WaspShared::steal_epoch: bumped before any termination-mode
  /// sweep (steal or remote drain) can move work behind a scan.
  verify::atomic<std::uint64_t> steal_epoch{0};
  /// Quiescence barrier (terminate()): the number of workers whose latest
  /// scan passed and who have not swept since. Exit requires quiesced == p.
  verify::atomic<std::uint32_t> quiesced{0};

  PartShared(const Graph& g, const PartitionCache::Entry& frags,
             Weight delta_, const WaspConfig& cfg, RunContext& ctx_, int p)
      : graph(g), part(frags.partition), shards(frags.shards), delta(delta_),
        config(cfg), ctx(ctx_), num_workers(p), curr(p),
        deques(static_cast<std::size_t>(p)), net(part.num_fragments()) {
    for (auto& d : deques) d = std::make_unique<ChaseLevDeque<ChunkT*>>();
  }
};

/// Per-thread worker: Algorithms 1 and 2 scoped to one fragment, plus the
/// remote send/drain obligations.
template <typename ChunkT>
class PartWorker {
 public:
  PartWorker(PartShared<ChunkT>& shared, int tid)
      : s_(shared), tid_(tid),
        frag_(shared.frag_of[static_cast<std::size_t>(tid)]),
        fragment_(shared.part.fragment(frag_)),
        dist_(*shared.shards[static_cast<std::size_t>(frag_)]),
        pool_(shared.arena), my_(shared.ctx.metrics.shard(tid)),
        rng_(hash_mix(0xA5B5ULL + static_cast<std::uint64_t>(tid))),
        deque_(shared.deques[static_cast<std::size_t>(tid)].get()),
        sender_(shared.net, shared.config.partition.flush_threshold),
        lookahead_(shared.ctx.prefetch_lookahead),
        prune_leaves_(shared.config.leaf_pruning),
        leaf_degree_(shared.graph.leaf_degree()) {
    buffer_ = alloc_chunk();
  }

  /// Seeds the source into this worker's current bucket. Called on one
  /// worker of the source's fragment before run(); the driver pre-published
  /// this worker busy at level 0. The seed worker is its fragment's leader,
  /// so this store is sequenced after the shard's constructor sweep on the
  /// same logical thread — it must happen here, on a team worker, not on
  /// the driver thread: the verify model only records stores from bound
  /// threads, and peers that read a stale kInfDist are harmless (the CAS
  /// relax path is monotone and this worker schedules the source itself).
  void seed(VertexId source) {
    dist_.store(source - fragment_.begin, 0);
    buffer_->set_priority(0);
    buffer_->push(source);
    publish_curr(0);
  }

  /// The main work loop: flat wasp's Algorithm 1 plus outbound flushes and
  /// inbound drains at bucket boundaries.
  void run() {
    for (;;) {
      // Cancellation point: abandon local buckets (arena-owned) and any
      // published-but-undrained inbound batches (freed by the network's
      // teardown); publishing kInfPriority lets peers reach all-idle.
      if (s_.ctx.stop_requested()) {
        publish_curr(kInfPriority);
        return;
      }
      drain_current_bucket();
      // Bucket boundary: publish open outbound batches so neighbour
      // fragments see our boundary relaxations, then pick up theirs.
      flush_outbound();
      // Guard: a pristine worker (board slot still kInfPriority, nothing
      // published since launch) must not schedule drained records here — a
      // scanner could reach its all-idle verdict while this worker holds
      // the fresh work. The first terminate() sweep drains instead, under
      // kStealingPriority and an epoch bump.
      //
      // When the drain schedules anything, restart the iteration: a record
      // whose level equals curr_cache_ lands in buffer_, which
      // min_non_empty() below cannot see — falling through could reach
      // terminate() holding live work whose in-flight accounting is already
      // settled, and the quiescence barrier would (soundly, by its own
      // lights) let every worker exit with the re-expansion lost.
      if (curr_cache_ != kInfPriority && drain_inbound() > 0) continue;

      const std::uint64_t next = buckets_.min_non_empty();
      if (try_steal_and_process(next)) continue;

      if (next != kInfPriority) {
        my_.inc(CId::kBucketAdvances);
        obs::trace_instant(s_.ctx.trace, tid_, EK::kBucketAdvance, next);
        publish_curr(next);
        pour_bucket(next);
        continue;
      }
      if (terminate()) return;
    }
  }

 private:
  ChunkT* alloc_chunk() {
    my_.inc(CId::kChunkAllocs);
    obs::trace_instant(s_.ctx.trace, tid_, EK::kChunkAlloc);
    return pool_.get();
  }

  // --- fragment-local distance shard --------------------------------------
  // All shard accesses translate the GLOBAL vertex id to the fragment-local
  // index; chunks and queues speak global ids throughout.

  [[nodiscard]] Distance shard_load(VertexId global_v) const {
    return dist_.load(global_v - fragment_.begin);
  }
  bool shard_relax(VertexId global_v, Distance candidate) {
    return dist_.relax_to(global_v - fragment_.begin, candidate);
  }

  /// Leaf pruning (§4.4): Graph::is_leaf for a vertex of this fragment, read
  /// off the fragment's own offsets. A leaf's distance is updated but the
  /// vertex is never scheduled.
  [[nodiscard]] bool prunable(VertexId global_v) const {
    return prune_leaves_ && fragment_.out_degree(global_v) <= leaf_degree_;
  }

  // --- current bucket ----------------------------------------------------

  void publish_curr(std::uint64_t level) {
    curr_cache_ = level;
    // Chaos: widen the decide->publish window kStealingPriority protects.
    WASP_CHAOS_YIELD(chaos::Point::kDelayCurrPublish);
    s_.curr.publish(tid_, level);  // release (curr_board.hpp)
  }

  bool pop_current(VertexId& u, std::uint64_t& prio, std::uint32_t& begin,
                   std::uint32_t& end) {
    if (buffer_->empty()) {
      ChunkT* refill = deque_->pop_bottom();
      if (refill == nullptr) return false;
      pool_.put(buffer_);
      buffer_ = refill;
    }
    prio = buffer_->priority();
    if (buffer_->is_range()) {
      begin = buffer_->range_begin();
      end = buffer_->range_end();
      u = buffer_->pop();
      buffer_->reset();  // range chunks hold exactly one vertex
    } else {
      begin = 0;
      end = kFullRange;
      u = buffer_->pop();
      // Chunk-drain lookahead against the fragment-local arrays.
      if (lookahead_ != 0 && !buffer_->empty()) {
        const VertexId ahead =
            buffer_->peek(std::min(lookahead_ - 1, buffer_->size() - 1));
        prefetch_read(dist_.prefetch_addr(ahead - fragment_.begin));
        prefetch_read(fragment_.offsets.data() + (ahead - fragment_.begin));
        my_.inc(CId::kPrefetchIssued, 2);
      }
    }
    return true;
  }

  void drain_current_bucket() {
    VertexId u;
    std::uint64_t prio;
    std::uint32_t begin, end;
    while (pop_current(u, prio, begin, end)) {
      // Cancellation point (one relaxed load per pop), as in flat wasp.
      if (s_.ctx.stop_requested()) return;
      if (is_stale(u, prio)) {
        my_.inc(CId::kStaleSkips);
        continue;
      }
      process_neighborhood(u, prio, begin, end);
    }
  }

  [[nodiscard]] bool is_stale(VertexId u, std::uint64_t prio) const {
    return static_cast<std::uint64_t>(shard_load(u)) <
           prio * static_cast<std::uint64_t>(s_.delta);
  }

  // --- pushing updates ---------------------------------------------------

  void push_to_buckets(VertexId v, std::uint64_t level) {
    if (level == curr_cache_) {
      if (buffer_->full()) {
        deque_->push_bottom(buffer_);
        buffer_ = alloc_chunk();
      }
      if (buffer_->empty()) buffer_->set_priority(level);
      buffer_->push(v);
      return;
    }
    ChunkT*& head = buckets_.at(level);
    // A range chunk (push_chunk files one here when a stolen chunk's level
    // differs from curr) carries exactly one vertex: appending to it would
    // pair another vertex with that vertex's edge range.
    if (head == nullptr || head->full() || head->is_range()) {
      ChunkT* fresh = alloc_chunk();
      fresh->set_priority(level);
      fresh->next = head;
      head = fresh;
    }
    head->push(v);
    buckets_.min_hint = std::min(buckets_.min_hint, level);
  }

  void push_chunk(ChunkT* c, std::uint64_t level) {
    c->set_priority(level);
    if (level == curr_cache_) {
      deque_->push_bottom(c);
      return;
    }
    ChunkT*& head = buckets_.at(level);
    c->next = head;
    head = c;
    buckets_.min_hint = std::min(buckets_.min_hint, level);
  }

  // --- relaxation --------------------------------------------------------

  void process_neighborhood(VertexId u, std::uint64_t prio, std::uint32_t begin,
                            std::uint32_t end) {
    const std::uint32_t degree = fragment_.out_degree(u);
    if (end == kFullRange) {
      end = degree;
      // Neighborhood decomposition (§4.4) over the fragment-local row.
      if (s_.config.neighborhood_decomposition && degree > s_.config.theta) {
        for (std::uint32_t lo = s_.config.theta; lo < degree;
             lo += s_.config.theta) {
          ChunkT* slice = alloc_chunk();
          slice->make_range(u, lo, std::min(lo + s_.config.theta, degree));
          push_chunk(slice, prio);
        }
        end = s_.config.theta;
      }
    }
    // No bidirectional relaxation here: pulling through in-edges would read
    // neighbour distances that may live in remote shards.

    const Distance du = shard_load(u);
    my_.inc(CId::kVerticesProcessed);
    ++progress_;
    if ((progress_ & 0xFFFu) == 0) {
      if (s_.ctx.observer != nullptr)
        s_.ctx.observer->on_progress(tid_, progress_);
      // Deadline poll at the observer cadence, as in flat wasp.
      (void)s_.ctx.poll_cancel();
    }

    const WEdge* edges = fragment_.edge_data() + fragment_.edge_offset(u);
    for (std::uint32_t j = begin; j < end; ++j) {
      if (lookahead_ != 0 && j + lookahead_ < end) {
        const VertexId target = edges[j + lookahead_].dst;
        if (fragment_.owns(target))
          prefetch_read(dist_.prefetch_addr(target - fragment_.begin));
      }
      const WEdge& e = edges[j];
      my_.inc(CId::kRelaxations);
      const Distance nd = saturating_add(du, e.w);
      if (fragment_.owns(e.dst)) {
        if (shard_relax(e.dst, nd)) {
          my_.inc(CId::kUpdates);
          if (prunable(e.dst)) continue;
          push_to_buckets(e.dst, static_cast<std::uint64_t>(nd) / s_.delta);
        }
      } else {
        // Boundary edge: defer to the owner through its remote queue. No
        // stale filter here beyond saturation — the receiver's relax CAS is
        // the arbiter (its shard may already hold something better).
        my_.inc(CId::kRemoteRelaxations);
        if (sender_.send(s_.part.owner_of(e.dst), e.dst, nd))
          my_.inc(CId::kRemoteBatches);
      }
    }
    if (lookahead_ != 0 && end - begin > lookahead_)
      my_.inc(CId::kPrefetchIssued, end - begin - lookahead_);
  }

  // --- remote queues ------------------------------------------------------

  /// Publishes every open outbound batch (bucket boundary / pre-idle).
  void flush_outbound() {
    const int published = sender_.flush_all();
    if (published > 0)
      my_.inc(CId::kRemoteBatches, static_cast<std::uint64_t>(published));
  }

  /// Grabs this fragment's inbound channel and applies the records to the
  /// local shard, scheduling improvements into the local buckets. Returns
  /// the number of vertices scheduled. Caller contract (termination
  /// soundness): this worker's board slot must not read kInfPriority while
  /// the call can schedule work — run() calls it under a real level,
  /// terminate() under kStealingPriority.
  std::uint64_t drain_inbound() {
    if (!s_.net.pending(frag_)) return 0;
    RemoteBatch* batch = s_.net.grab_all(frag_);
    if (batch == nullptr) return 0;  // a peer member grabbed it first
    std::uint64_t scheduled = 0;
    std::uint64_t grabbed = 0;
    bool cancelled = false;
    while (batch != nullptr) {
      RemoteBatch* next_batch = batch->next;
      const std::uint32_t count = batch->size();
      grabbed += count;
      // Cancellation point at batch granularity: a cancelled drain still
      // frees every grabbed batch and settles the in-flight accounting.
      cancelled = cancelled || s_.ctx.stop_requested();
      if (!cancelled) {
        for (std::uint32_t i = 0; i < count; ++i) {
          const RemoteRelax r = batch->record(i);
          if (shard_relax(r.vertex, r.dist)) {
            my_.inc(CId::kUpdates);
            if (prunable(r.vertex)) continue;
            push_to_buckets(r.vertex,
                            static_cast<std::uint64_t>(r.dist) / s_.delta);
            ++scheduled;
          } else {
            my_.inc(CId::kStaleSkips);
          }
        }
      }
      // Subtract only now: the records are applied (or the run is being
      // cancelled and the verdict no longer matters). The termination
      // scan's zero-in-flight leg relies on this ordering.
      s_.net.on_drained(count);
      free_batch(batch);
      batch = next_batch;
    }
    my_.observe(obs::HistId::kRemoteQueueDepth, grabbed);
    return scheduled;
  }

  // --- work stealing (fragment-local) -------------------------------------

  /// As flat wasp's sweep, but victims come only from this fragment's
  /// members — stealing never crosses a fragment (hence, with aligned
  /// placement, never a NUMA node).
  bool try_steal_and_process(std::uint64_t next) {
    // Deadline poll at sweep entry, as in flat wasp.
    (void)s_.ctx.poll_cancel();
    const std::vector<int>& members =
        s_.members[static_cast<std::size_t>(frag_)];
    if (members.size() <= 1) return false;
    ChunkT* stolen[64];
    int count = 0;
    obs::trace_begin(s_.ctx.trace, tid_, EK::kStealSweep, next);
    Timer steal_timer;
    switch (s_.config.steal_policy) {
      case StealPolicy::kPriorityNuma:
        count = steal_priority_numa(next, stolen);
        break;
      case StealPolicy::kRandom:
        count = steal_random(stolen);
        break;
      case StealPolicy::kTwoChoice:
        count = steal_two_choice(stolen);
        break;
    }
    const std::uint64_t sweep_ns = steal_timer.nanoseconds();
    my_.inc(CId::kStealNs, sweep_ns);
    my_.observe(obs::HistId::kStealSweepNs, sweep_ns);
    obs::trace_end(s_.ctx.trace, tid_, EK::kStealSweep,
                   static_cast<std::uint64_t>(count));
    if (count == 0) return false;

    std::uint64_t best = kInfPriority;
    for (int i = 0; i < count; ++i)
      best = std::min(best, stolen[i]->priority());
    publish_curr(best);

    for (int i = 0; i < count; ++i) {
      ChunkT* c = stolen[i];
      const std::uint64_t prio = c->priority();
      const bool range = c->is_range();
      const std::uint32_t rb = c->range_begin();
      const std::uint32_t re = c->range_end();
      while (!c->empty()) {
        if (s_.ctx.stop_requested()) {
          c->reset();
          break;
        }
        const VertexId u = c->pop();
        if (is_stale(u, prio)) {
          my_.inc(CId::kStaleSkips);
          continue;
        }
        if (range) {
          process_neighborhood(u, prio, rb, re);
        } else {
          process_neighborhood(u, prio, 0, kFullRange);
        }
      }
      c->reset();
      pool_.put(c);
    }
    return true;
  }

  /// One successful steal from a fragment member (usually same-node; a
  /// membership fix-up can place a worker off its fragment's node).
  void record_steal(int victim) {
    my_.inc(CId::kSteals);
    my_.inc(s_.node_of[static_cast<std::size_t>(victim)] ==
                    s_.node_of[static_cast<std::size_t>(tid_)]
                ? CId::kLocalSteals
                : CId::kRemoteSteals);
  }

  int steal_priority_numa(std::uint64_t next, ChunkT** out) {
    const std::vector<int>& members =
        s_.members[static_cast<std::size_t>(frag_)];
    const VictimTiers& tiers = *s_.frag_tiers[static_cast<std::size_t>(frag_)];
    const int me = s_.local_idx[static_cast<std::size_t>(tid_)];
    int count = 0;
    for (const auto& tier : tiers.tiers(me)) {
      for (const int lv : tier) {
        const int t = members[static_cast<std::size_t>(lv)];
        my_.inc(CId::kStealAttempts);
        obs::trace_instant(s_.ctx.trace, tid_, EK::kStealAttempt,
                           static_cast<std::uint64_t>(t));
        const std::uint64_t victim_curr = s_.curr.probe(t);  // acquire
        if (victim_curr > next) {
          notify_steal(t, false);
          continue;
        }
        ChunkT* c = s_.deques[static_cast<std::size_t>(t)]->steal();
        notify_steal(t, c != nullptr);
        if (c != nullptr) {
          record_steal(t);
          out[count++] = c;
          if (count == 64) return count;
        }
      }
      if (count > 0) return count;
    }
    return count;
  }

  void notify_steal(int victim, bool success) {
    if (success)
      obs::trace_instant(s_.ctx.trace, tid_, EK::kStealSuccess,
                         static_cast<std::uint64_t>(victim));
    if (s_.ctx.observer != nullptr)
      s_.ctx.observer->on_steal(tid_, victim, success);
  }

  /// Random victim among fragment members (§4.2 ablation, scoped).
  int steal_random(ChunkT** out) {
    const std::vector<int>& members =
        s_.members[static_cast<std::size_t>(frag_)];
    const int m = static_cast<int>(members.size());
    const int me = s_.local_idx[static_cast<std::size_t>(tid_)];
    for (int attempt = 0; attempt <= s_.config.steal_retries; ++attempt) {
      int lv = static_cast<int>(
          rng_.next_below(static_cast<std::uint64_t>(m - 1)));
      if (lv >= me) ++lv;
      const int t = members[static_cast<std::size_t>(lv)];
      my_.inc(CId::kStealAttempts);
      obs::trace_instant(s_.ctx.trace, tid_, EK::kStealAttempt,
                         static_cast<std::uint64_t>(t));
      ChunkT* c = s_.deques[static_cast<std::size_t>(t)]->steal();
      notify_steal(t, c != nullptr);
      if (c != nullptr) {
        record_steal(t);
        out[0] = c;
        return 1;
      }
    }
    return 0;
  }

  /// Two-choice victim among fragment members (§4.2 ablation, scoped).
  int steal_two_choice(ChunkT** out) {
    const std::vector<int>& members =
        s_.members[static_cast<std::size_t>(frag_)];
    const int m = static_cast<int>(members.size());
    const int me = s_.local_idx[static_cast<std::size_t>(tid_)];
    for (int attempt = 0; attempt <= s_.config.steal_retries; ++attempt) {
      int a = static_cast<int>(
          rng_.next_below(static_cast<std::uint64_t>(m - 1)));
      if (a >= me) ++a;
      int b = static_cast<int>(
          rng_.next_below(static_cast<std::uint64_t>(m - 1)));
      if (b >= me) ++b;
      const int ta = members[static_cast<std::size_t>(a)];
      const int tb = members[static_cast<std::size_t>(b)];
      const std::uint64_t ca = s_.curr.probe(ta);  // acquire (curr_board.hpp)
      const std::uint64_t cb = s_.curr.probe(tb);  // acquire (curr_board.hpp)
      const int t = ca <= cb ? ta : tb;
      my_.inc(CId::kStealAttempts);
      obs::trace_instant(s_.ctx.trace, tid_, EK::kStealAttempt,
                         static_cast<std::uint64_t>(t));
      ChunkT* c = s_.deques[static_cast<std::size_t>(t)]->steal();
      notify_steal(t, c != nullptr);
      if (c != nullptr) {
        record_steal(t);
        out[0] = c;
        return 1;
      }
    }
    return 0;
  }

  // --- termination (§4.3 double-scan + quiescence barrier) -----------------

  /// Flat wasp's double-scan, hardened into a barrier. A passing scan casts
  /// a VOTE (seq_cst increment of s_.quiesced) rather than returning; the
  /// worker keeps scanning — and keeps draining its fragment's channel —
  /// until all p votes are in. A sweep revokes the vote before touching any
  /// work source.
  ///
  /// Why the barrier: flat wasp survives a worker exiting on a stale-read
  /// verdict — the work it missed is still reachable by the survivors, who
  /// finish it before the team join. Here an exited worker's fragment may
  /// receive records afterwards with no remaining member to drain them:
  /// distances stay wrong and in_flight never returns to zero, hanging the
  /// survivors. So nobody leaves until everybody can.
  ///
  /// Exit soundness: quiesced == p (the true count — every vote, revoke,
  /// and the exit load are seq_cst) at any instant implies no work exists
  /// anywhere at that instant.
  ///  - Local work: a voted worker holds none. Voting requires this
  ///    worker's own buckets, deque, buffer, and open batches empty (facts
  ///    it knows exactly about itself — run() flushes and drains to
  ///    exhaustion before calling terminate(), and a sweep that acquires
  ///    work revokes first, then returns to run()).
  ///  - Remote work: in_flight counts every record from before its batch is
  ///    grabbable until after it is applied (remote_queue.hpp, all seq_cst).
  ///    Batches are published only while processing, i.e. by unvoted
  ///    workers, and such a worker re-votes only after a scan reads the
  ///    true in_flight == 0 — which requires its batch already applied and
  ///    subtracted. An outstanding record therefore keeps its publisher
  ///    unvoted, so a full count also rules out channel backlogs and
  ///    half-drained grabs.
  ///
  /// The scan verdict (all board slots idle, in-flight zero, stable steal
  /// epoch) gates the vote, not the exit, so the acquire board/epoch reads
  /// only affect vote churn, never correctness. The in-flight read sits
  /// before the board scan on purpose: the counter's seq_cst RMW chain
  /// carries each drainer's release clock, and every drain is sequenced
  /// after that drainer's busy publication (kStealingPriority in sweeps, a
  /// real level in run()), so a scanner that reads the true zero cannot
  /// then see a worker still busy with drained records as idle.
  bool terminate() {
    const int p = s_.num_workers;
    bool sweep = true;  // sweep on entry; afterwards only when work is seen
    bool voted = false;
    obs::trace_begin(s_.ctx.trace, tid_, EK::kTerminationScan);
    for (;;) {
      // Cancellation point (with deadline check), as in flat wasp. The vote
      // is not revoked: every worker observes the same sticky stop flag and
      // exits, so the count is never read again.
      if (s_.ctx.poll_cancel()) {
        publish_curr(kInfPriority);
        obs::trace_end(s_.ctx.trace, tid_, EK::kTerminationScan, 1);
        return true;
      }
      if (sweep) {
        if (voted) {
          // Revoke BEFORE stealing or draining: the exit argument needs
          // "voted implies holding no work" at every instant, so the
          // seq_cst decrement must precede any chance of acquiring work.
          s_.quiesced.fetch_sub(1, std::memory_order_seq_cst);
          voted = false;
        }
        // acq_rel: orders this sweep's steal/drain between the double-scan's
        // acquire reads, invalidating any scan it raced with (wasp.cpp has
        // the base argument; the drain is a new way to move work).
        s_.steal_epoch.fetch_add(1, std::memory_order_acq_rel);
        publish_curr(kStealingPriority);
        if (try_steal_and_process(kInfPriority)) {
          obs::trace_end(s_.ctx.trace, tid_, EK::kTerminationScan, 0);
          return false;
        }
        if (drain_inbound() > 0) {
          // Fresh remote work landed in our buckets (under
          // kStealingPriority, so no scanner saw us idle meanwhile); let
          // run() advance to it.
          obs::trace_end(s_.ctx.trace, tid_, EK::kTerminationScan, 0);
          return false;
        }
        publish_curr(kInfPriority);
      }

      my_.inc(CId::kTerminationScans);
      Timer idle_timer;
      // Acquire epoch reads bracket the scan (§4.3 double-scan).
      const std::uint64_t epoch_before =
          s_.steal_epoch.load(std::memory_order_acquire);
      // True in-flight count first — see the function comment for why this
      // read precedes the board scan. seq_cst (remote_queue.hpp).
      const std::uint64_t in_flight = s_.net.in_flight();
      bool all_idle = true;
      bool someone_working = false;
      for (int t = 0; t < p; ++t) {
        const std::uint64_t c = s_.curr.scan(t);  // acquire (curr_board.hpp)
        if (c != kInfPriority) all_idle = false;
        if (c < kStealingPriority) someone_working = true;
      }
      // Acquire: closes the double-scan bracket (see epoch_before).
      const std::uint64_t epoch_after =
          s_.steal_epoch.load(std::memory_order_acquire);

      if (all_idle && in_flight == 0 && epoch_before == epoch_after) {
        // Chaos: distrust the verdict and force one more sweep (which also
        // exercises the revoke path once this worker has voted).
        if (WASP_CHAOS_FAIL(chaos::Point::kSpuriousWakeup)) {
          sweep = true;
          record_idle(idle_timer.nanoseconds());
          continue;
        }
        if (!voted) {
          // seq_cst: the exit load below must observe true counts.
          s_.quiesced.fetch_add(1, std::memory_order_seq_cst);
          voted = true;
        }
        // seq_cst: the barrier. All p voted at this instant => quiescent.
        if (s_.quiesced.load(std::memory_order_seq_cst) ==
            static_cast<std::uint32_t>(p)) {
          record_idle(idle_timer.nanoseconds());
          obs::trace_end(s_.ctx.trace, tid_, EK::kTerminationScan, 1);
          if (s_.ctx.observer != nullptr)
            s_.ctx.observer->on_termination(tid_);
          return true;
        }
        // Not everyone is done; keep scanning (and draining) as a lame
        // duck. No sweep needed unless the checks below say otherwise.
      }
      // Re-sweep when a worker holds real-priority work, or when our own
      // fragment's channel has batches to drain (pending() is advisory —
      // relaxed — but a miss only delays one yield-iteration, and the
      // vote gate above keeps the exit sound regardless).
      sweep = someone_working || s_.net.pending(frag_);
      std::this_thread::yield();
      record_idle(idle_timer.nanoseconds());
    }
  }

  void record_idle(std::uint64_t ns) {
    my_.inc(CId::kIdleNs, ns);
    my_.observe(obs::HistId::kIdleScanNs, ns);
  }

  // --- bucket advance ----------------------------------------------------

  void pour_bucket(std::uint64_t level) {
    ChunkT* c = buckets_.head[level];
    buckets_.head[level] = nullptr;
    while (c != nullptr) {
      ChunkT* next_chunk = c->next;
      c->next = nullptr;
      deque_->push_bottom(c);
      c = next_chunk;
    }
  }

  PartShared<ChunkT>& s_;
  const int tid_;
  const int frag_;
  const GraphPartition::Fragment& fragment_;
  AtomicDistances& dist_;  ///< this fragment's shard (local indices)
  BasicChunkPool<ChunkT> pool_;
  obs::MetricsShard& my_;
  Xoshiro256 rng_;
  ChaseLevDeque<ChunkT*>* deque_;
  RemoteSender sender_;
  ChunkT* buffer_ = nullptr;
  BucketList<ChunkT> buckets_;
  std::uint64_t curr_cache_ = kInfPriority;
  std::uint64_t progress_ = 0;
  const std::uint32_t lookahead_;
  const bool prune_leaves_;          ///< config.leaf_pruning
  const std::uint32_t leaf_degree_;  ///< Graph::leaf_degree()
};

template <typename ChunkT>
SsspResult wasp_sssp_partitioned_impl(const Graph& g, VertexId source,
                                      Weight delta, const WaspConfig& config,
                                      RunContext& ctx) {
  const int p = ctx.team.size();
  const VertexId n = g.num_vertices();

  std::shared_ptr<const NumaTopology> topo = config.topology;
  if (!topo) topo = std::make_shared<NumaTopology>(NumaTopology::detect());
  std::vector<int> cpu_of(static_cast<std::size_t>(p));
  std::vector<int> node_of(static_cast<std::size_t>(p));
  for (int t = 0; t < p; ++t) {
    cpu_of[static_cast<std::size_t>(t)] = ctx.team.cpu_of(t) % topo->num_cpus();
    node_of[static_cast<std::size_t>(t)] =
        topo->node_of_cpu(cpu_of[static_cast<std::size_t>(t)]);
  }

  // Every fragment needs at least one member worker (it alone drains its
  // inbound channel), so the fragment count is capped by the team size.
  const int want = config.partition.num_fragments > 0
                       ? config.partition.num_fragments
                       : topo->num_nodes();
  const int f_want = std::clamp(want, 1, p);

  // Reuse the cached fragments and shards when they were built for this
  // graph content, fragment count, team and topology. Otherwise drop the
  // stale entry first, so at most one CSR copy is alive, and build afresh.
  const PartitionCache::Key key{g.stamp(), f_want, p, topo};
  PartitionCache::Entry* frags =
      ctx.partitions != nullptr ? ctx.partitions->find(key) : nullptr;
  std::unique_ptr<PartitionCache::Entry> built;
  if (frags == nullptr) {
    if (ctx.partitions != nullptr) ctx.partitions->entry.reset();
    built = std::make_unique<PartitionCache::Entry>(PartitionCache::Entry{
        key,
        GraphPartition::build(g, *topo, f_want, p > 1 ? &ctx.team : nullptr),
        {}});
    frags = built.get();
  }
  const GraphPartition& part = frags->partition;
  const int f_count = part.num_fragments();

  PartShared<ChunkT> shared(g, *frags, delta, config, ctx, p);

  // Worker -> fragment membership: node affinity first (a worker joins the
  // fragment assigned to its NUMA node, folded mod f_count), then a
  // deterministic fix-up moves workers out of the largest group until every
  // fragment has at least one member (feasible since f_count <= p).
  shared.frag_of.resize(static_cast<std::size_t>(p));
  shared.members.assign(static_cast<std::size_t>(f_count), {});
  for (int t = 0; t < p; ++t) {
    const int f = node_of[static_cast<std::size_t>(t)] % f_count;
    shared.frag_of[static_cast<std::size_t>(t)] = f;
    shared.members[static_cast<std::size_t>(f)].push_back(t);
  }
  for (int f = 0; f < f_count; ++f) {
    while (shared.members[static_cast<std::size_t>(f)].empty()) {
      int big = 0;
      for (int o = 1; o < f_count; ++o) {
        if (shared.members[static_cast<std::size_t>(o)].size() >
            shared.members[static_cast<std::size_t>(big)].size())
          big = o;
      }
      const int moved = shared.members[static_cast<std::size_t>(big)].back();
      shared.members[static_cast<std::size_t>(big)].pop_back();
      shared.members[static_cast<std::size_t>(f)].push_back(moved);
      shared.frag_of[static_cast<std::size_t>(moved)] = f;
    }
  }
  shared.local_idx.resize(static_cast<std::size_t>(p));
  for (int f = 0; f < f_count; ++f) {
    const auto& ms = shared.members[static_cast<std::size_t>(f)];
    for (std::size_t i = 0; i < ms.size(); ++i)
      shared.local_idx[static_cast<std::size_t>(ms[i])] = static_cast<int>(i);
  }
  shared.node_of = node_of;

  // Fragment-local victim tiers, over each fragment's member CPUs.
  shared.frag_tiers.resize(static_cast<std::size_t>(f_count));
  for (int f = 0; f < f_count; ++f) {
    const auto& ms = shared.members[static_cast<std::size_t>(f)];
    std::vector<int> member_cpus;
    member_cpus.reserve(ms.size());
    for (const int t : ms)
      member_cpus.push_back(cpu_of[static_cast<std::size_t>(t)]);
    shared.frag_tiers[static_cast<std::size_t>(f)] =
        std::make_unique<VictimTiers>(*topo, member_cpus);
  }

  if (built != nullptr) {
    // Placement phase: each fragment's leader (member 0) constructs its
    // distance shard — the constructor's kInfDist sweep is the first touch,
    // so the shard's pages land on the leader's node. The team join
    // publishes the shard pointers to every worker of the solve phase.
    built->shards.resize(static_cast<std::size_t>(f_count));
    ctx.team.run([&](int tid) {
      verify::ScopedSchedule schedule_guard(tid);
      if (shared.local_idx[static_cast<std::size_t>(tid)] == 0) {
        const int f = shared.frag_of[static_cast<std::size_t>(tid)];
        built->shards[static_cast<std::size_t>(f)] =
            std::make_unique<AtomicDistances>(
                part.fragment(f).num_vertices());
      }
    });
    ctx.metrics.shard(0).inc(CId::kPartitionBuilds);
    ctx.metrics.shard(0).inc(CId::kEpochSweeps);
    // Cached only now that it is complete: a build that threw above left
    // the cache empty, never half-built.
    if (ctx.partitions != nullptr) ctx.partitions->entry = std::move(built);
  } else if (ctx.partitions->new_epoch()) {
    // Warm: frags is the cache's entry, reset by an O(1) epoch bump per
    // shard (the same membership placed them, so their pages already sit on
    // their leaders' nodes); only a tag wrap sweeps.
    ctx.metrics.shard(0).inc(CId::kEpochSweeps);
  }

  // Pre-publish the seed worker (the source fragment's leader) busy at
  // level 0 so no worker can pass the termination check before the seed is
  // planted; the dist[source] = 0 store itself happens in seed(), on the
  // worker (see the comment there).
  const int source_frag = part.owner_of(source);
  const int seed_worker =
      shared.members[static_cast<std::size_t>(source_frag)].front();
  shared.curr.publish(seed_worker, 0);

  chaos::Engine* chaos = config.chaos != nullptr ? config.chaos : ctx.chaos;
  Timer timer;
  ctx.team.run([&](int tid) {
    verify::ScopedSchedule schedule_guard(tid);
    chaos::ScopedInstall chaos_guard(chaos, tid);
    PartWorker<ChunkT> worker(shared, tid);
    if (tid == seed_worker) worker.seed(source);
    worker.run();
  });
  SsspResult result;
  finalize_result(ctx, timer.seconds(), result);
  result.dist.resize(n);
  for (int f = 0; f < f_count; ++f) {
    const GraphPartition::Fragment& frag = part.fragment(f);
    const AtomicDistances& shard =
        *frags->shards[static_cast<std::size_t>(f)];
    for (VertexId v = 0; v < frag.num_vertices(); ++v)
      result.dist[frag.begin + v] = shard.load(v);
  }
  return result;
}

}  // namespace

SsspResult wasp_sssp_partitioned(const Graph& g, VertexId source, Weight delta,
                                 const WaspConfig& config, RunContext& ctx) {
  switch (config.chunk_capacity) {
    case 16:
      return wasp_sssp_partitioned_impl<BasicChunk<16>>(g, source, delta,
                                                        config, ctx);
    case 32:
      return wasp_sssp_partitioned_impl<BasicChunk<32>>(g, source, delta,
                                                        config, ctx);
    case 64:
      return wasp_sssp_partitioned_impl<BasicChunk<64>>(g, source, delta,
                                                        config, ctx);
    case 128:
      return wasp_sssp_partitioned_impl<BasicChunk<128>>(g, source, delta,
                                                         config, ctx);
    case 256:
      return wasp_sssp_partitioned_impl<BasicChunk<256>>(g, source, delta,
                                                         config, ctx);
    default:
      throw InvalidOptionsError(
          "wasp_sssp_partitioned: chunk_capacity must be one of 16, 32, 64, "
          "128, 256");
  }
}

}  // namespace wasp
