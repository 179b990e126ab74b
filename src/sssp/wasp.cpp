// One Wasp engine for every solve: flat, partitioned and seeded repair.
//
// A run splits the graph into F fragments (libgrape-lite's model: a single
// machine is F = 1) and every worker relaxes against a FragmentView of its
// own fragment. A one-fragment run views the whole Graph and the pooled
// AtomicDistances: no partition, relay or vote. A run with F > 1 views the
// cached PartitionCache fragments and shards (graph/partition.hpp, Solver's
// PartitionCache), and the Relay instantiation adds what crossing fragments
// needs:
//  * a relaxation whose target another fragment owns becomes a {vertex,
//    dist} record in a batched remote queue (concurrent/remote_queue.hpp),
//    published when full and at bucket boundaries and drained by the
//    owner's members;
//  * stealing stays inside the fragment;
//  * termination extends the §4.3 double-scan with a quiescence barrier
//    (terminate()).
// A cold solve and a repair differ only in their seeds: {source} at
// distance 0, or the caller's frontier at its pre-loaded bounds. A one-worker
// repair may also pause at a budget of processed vertices (WaspWorker::pause).
#include "sssp/wasp.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <memory>
#include <thread>
#include <vector>

#include "concurrent/chase_lev_deque.hpp"
#include "concurrent/chunk.hpp"
#include "concurrent/remote_queue.hpp"
#include "graph/partition.hpp"
#include "sssp/curr_board.hpp"
#include "support/errors.hpp"
#include "support/padded.hpp"
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

/// Sentinel neighbour range meaning "the whole adjacency list".
constexpr std::uint32_t kFullRange = ~std::uint32_t{0};

/// Failed termination rounds an idle worker spins through before it parks.
/// Enough to ride out the short gaps of a busy run (a peer about to pour
/// its next bucket); few enough that a worker with nothing to steal stops
/// loading the memory system within microseconds.
constexpr int kParkAfterRounds = 64;

/// Chunks an owner's deque must hold after a push before the owner wakes a
/// parked peer: the first is the owner's own next refill, the second is
/// surplus a thief can take.
constexpr std::int64_t kWakeSurplus = 2;

/// States of a worker's park word (WaspShared::park).
constexpr std::uint32_t kAwake = 0;
constexpr std::uint32_t kParked = 1;

/// What a worker relaxes against: its fragment's vertex range, CSR rows and
/// distances. Rows and distances are indexed by local id (v - begin); edge
/// destinations stay global. Non-owning.
struct FragmentView {
  VertexId begin = 0;
  VertexId end = 0;
  const EdgeIndex* offsets = nullptr;
  const WEdge* edges = nullptr;
  AtomicDistances* dist = nullptr;
};

/// Thread-local bucket list: level -> linked stack of chunks, the head chunk
/// partially filled. Grown by power-of-two rounding (§4.3).
template <typename ChunkT>
struct BucketList {
  std::vector<ChunkT*> head;
  std::uint64_t min_hint = kInfPriority;

  ChunkT*& at(std::uint64_t level) {
    if (level >= head.size()) {
      // Grow geometrically from the *requested* level, not by doubling the
      // current size: a weight outlier landing in a sparse high bucket
      // resizes straight to bit_ceil(level+1) instead of walking there.
      const std::size_t cap = std::max<std::size_t>(
          64, std::bit_ceil(static_cast<std::size_t>(level) + 1));
      head.resize(cap, nullptr);
    }
    return head[level];
  }

  /// Smallest level holding vertices; updates the scan hint.
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

/// Everything shared between the worker lambdas of one run. Owns the deques
/// so a finished worker's current bucket stays probeable by late thieves.
/// The curr board, steal epoch, park words and relay network are run-wide
/// (termination is a whole-run property); views, members and victim tiers
/// are per fragment. Templated on the chunk type so the sensitivity bench
/// can instantiate Wasp at several chunk capacities (the paper's default is
/// 64, §4.3).
template <typename ChunkT>
struct WaspShared {
  const Graph& graph;
  Weight delta;
  const WaspConfig& config;
  RunContext& ctx;  ///< metrics shards, trace recorder, observer
  const GraphPartition* part;  ///< null for a one-fragment run
  LoweredLog* log;  ///< a seeded run's record of what it lowered; null cold
  std::uint64_t budget = kNoWorkBudget;  ///< a lone seeded worker's pause point
  std::vector<FragmentView> views;  ///< fragment -> view
  int num_workers;
  std::vector<int> frag_of;               ///< worker -> fragment
  std::vector<std::vector<int>> members;  ///< fragment -> worker tids
  std::vector<int> local_idx;             ///< worker -> index in its members
  std::vector<int> node_of;  ///< worker -> NUMA node (steal-locality counters)
  std::vector<int> everyone;  ///< 0..p-1, the group an exit or vote wakes
  /// Victim tiers per fragment over that fragment's members (indices are
  /// member-local; translate through `members`).
  std::vector<std::unique_ptr<VictimTiers>> tiers;
  CurrBoard curr;  ///< per-worker published levels (sssp/curr_board.hpp)
  std::vector<std::unique_ptr<ChaseLevDeque<ChunkT*>>> deques;
  BasicChunkArena<ChunkT> arena;
  RemoteRelayNetwork net;  ///< per-fragment inbound channels + in-flight count
  /// Bumped whenever a thread enters a termination-mode sweep (steal or
  /// remote drain); the double-scan termination check needs it to detect
  /// work migrating behind a scan (see WaspWorker::terminate).
  verify::atomic<std::uint64_t> steal_epoch{0};
  /// Quiescence barrier of a relay run (terminate()): the number of workers
  /// whose latest scan passed and who have not swept since.
  verify::atomic<std::uint32_t> quiesced{0};
  /// Per-worker park word (kAwake / kParked): an idle worker announces
  /// itself here before it blocks, and pushers, publishers, voters and
  /// leaving workers wake it through it (WaspWorker::park / wake_parked).
  /// Starts kAwake.
  std::vector<CachePadded<verify::atomic<std::uint32_t>>> park;

  WaspShared(const Graph& g, Weight delta_, const WaspConfig& cfg,
             RunContext& ctx_, const GraphPartition* part_, LoweredLog* log_,
             int fragments, int p, const NumaTopology& topo,
             const std::vector<int>& cpu_of)
      : graph(g), delta(delta_), config(cfg), ctx(ctx_), part(part_),
        log(log_),
        views(static_cast<std::size_t>(fragments)), num_workers(p),
        frag_of(static_cast<std::size_t>(p)),
        members(static_cast<std::size_t>(fragments)),
        local_idx(static_cast<std::size_t>(p)),
        node_of(static_cast<std::size_t>(p)),
        everyone(static_cast<std::size_t>(p)), curr(p),
        deques(static_cast<std::size_t>(p)), net(fragments),
        park(static_cast<std::size_t>(p)) {
    for (auto& d : deques) d = std::make_unique<ChaseLevDeque<ChunkT*>>();
    for (int t = 0; t < p; ++t) {
      node_of[static_cast<std::size_t>(t)] =
          topo.node_of_cpu(cpu_of[static_cast<std::size_t>(t)]);
      everyone[static_cast<std::size_t>(t)] = t;
    }
    assign_members(fragments);
    tiers.resize(static_cast<std::size_t>(fragments));
    for (int f = 0; f < fragments; ++f) {
      std::vector<int> member_cpus;
      for (const int t : members[static_cast<std::size_t>(f)])
        member_cpus.push_back(cpu_of[static_cast<std::size_t>(t)]);
      tiers[static_cast<std::size_t>(f)] =
          std::make_unique<VictimTiers>(topo, member_cpus);
    }
  }

  /// Worker -> fragment membership: node affinity first (a worker joins the
  /// fragment assigned to its NUMA node, folded mod the fragment count),
  /// then a deterministic fix-up moves workers out of the largest group
  /// until every fragment has a member (feasible since fragments <= p). One
  /// fragment holds every worker in tid order.
  void assign_members(int fragments) {
    for (int t = 0; t < num_workers; ++t) {
      const int f = node_of[static_cast<std::size_t>(t)] % fragments;
      frag_of[static_cast<std::size_t>(t)] = f;
      members[static_cast<std::size_t>(f)].push_back(t);
    }
    for (int f = 0; f < fragments; ++f) {
      while (members[static_cast<std::size_t>(f)].empty()) {
        int big = 0;
        for (int o = 1; o < fragments; ++o) {
          if (members[static_cast<std::size_t>(o)].size() >
              members[static_cast<std::size_t>(big)].size())
            big = o;
        }
        const int moved = members[static_cast<std::size_t>(big)].back();
        members[static_cast<std::size_t>(big)].pop_back();
        members[static_cast<std::size_t>(f)].push_back(moved);
        frag_of[static_cast<std::size_t>(moved)] = f;
      }
    }
    for (const auto& ms : members) {
      for (std::size_t i = 0; i < ms.size(); ++i)
        local_idx[static_cast<std::size_t>(ms[i])] = static_cast<int>(i);
    }
  }

  /// The worker that plants seeds[i] = v: round-robin over the members of
  /// v's fragment (over all workers in a one-fragment run).
  [[nodiscard]] int seed_worker(std::size_t i, VertexId v) const {
    const auto& ms =
        members[static_cast<std::size_t>(part != nullptr ? part->owner_of(v)
                                                         : 0)];
    return ms[i % ms.size()];
  }
};

/// Per-thread worker implementing Algorithms 1 and 2 over one fragment.
/// `Relay` adds the remote send/drain and the vote barrier of a run with
/// more than one fragment; without it every vertex is local and the worker
/// indexes the Graph and the pooled array directly.
template <typename ChunkT, bool Relay>
class WaspWorker {
 public:
  WaspWorker(WaspShared<ChunkT>& shared, int tid)
      : s_(shared), tid_(tid),
        frag_(shared.frag_of[static_cast<std::size_t>(tid)]),
        view_(shared.views[static_cast<std::size_t>(frag_)]),
        dist_(*view_.dist), pool_(shared.arena),
        my_(shared.ctx.metrics.shard(tid)),
        rng_(hash_mix(0xA5B5ULL + static_cast<std::uint64_t>(tid))),
        deque_(shared.deques[static_cast<std::size_t>(tid)].get()),
        sender_(shared.net, shared.config.partition.flush_threshold),
        log_(shared.log),
        budget_(shared.budget),
        prune_leaves_(shared.config.leaf_pruning),
        leaf_degree_(shared.graph.leaf_degree()) {
    buffer_ = alloc_chunk();
  }

  /// Plants this worker's share of the seeds (WaspShared::seed_worker) and
  /// publishes its minimum level, which run_wasp pre-published on the
  /// board so the termination scan cannot fire before the seeds land. A
  /// cold seed gets distance 0 here, on the worker: the verify model only
  /// records stores from bound threads, and a fragment shard was written
  /// last by its leader. A warm seed keeps its pre-loaded bound and is
  /// skipped when that is infinite (nothing can relax from it).
  void seed(std::span<const VertexId> seeds, bool cold) {
    std::uint64_t min_level = kInfPriority;
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      if (s_.seed_worker(i, seeds[i]) != tid_) continue;
      if (cold) dist_.store(local(seeds[i]), 0);
      min_level = std::min(min_level, level_of(seeds[i]));
    }
    if (min_level == kInfPriority) return;
    // Publish first, so seeds at this level land in the current bucket.
    publish_curr(min_level);
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      if (s_.seed_worker(i, seeds[i]) != tid_) continue;
      const std::uint64_t level = level_of(seeds[i]);
      if (level != kInfPriority) push_to_buckets(seeds[i], level);
    }
  }

  /// Runs the work loop, then wakes every parked peer: a worker leaving
  /// run(), by verdict or by cancel, may be the last one awake, and each
  /// parked peer must reach the verdict (or its own cancel poll) itself.
  void run() {
    work_loop();
    wake_parked(s_.everyone, s_.num_workers);
  }

 private:
  /// The main work loop (Algorithm 1, work_stealing_shortest_path), plus
  /// outbound flushes and inbound drains at bucket boundaries in a relay
  /// run.
  void work_loop() {
    for (;;) {
      // Cancellation point: abandon unprocessed buckets (arena-owned, freed
      // with the run) and any undrained inbound batches (freed by the
      // network's teardown), and leave through the normal idle path.
      // Publishing kInfPriority lets peers still inside terminate() reach
      // the all-idle verdict even before their own poll fires. A budget
      // stop leaves the same way, once it has handed its queue to the log.
      if (stop_requested()) {
        if (progress_ >= budget_) pause();
        publish_curr(kInfPriority);
        return;
      }
      drain_current_bucket();
      // A stop inside the drain leaves entries in the buffer or deque:
      // leave above, before a termination scan could read them as done.
      if (stop_requested()) continue;
      if constexpr (Relay) {
        // Bucket boundary: publish open outbound batches so neighbour
        // fragments see our boundary relaxations, then pick up theirs.
        flush_outbound();
        // Guard: a pristine worker (board slot still kInfPriority) must not
        // schedule drained records here — a scanner could reach its
        // all-idle verdict while this worker holds the fresh work. The
        // first terminate() sweep drains instead, under kStealingPriority
        // and an epoch bump. When the drain schedules anything, restart: a
        // record at curr_cache_ lands in buffer_, which min_non_empty()
        // cannot see, and terminate() must never be reached holding it.
        if (curr_cache_ != kInfPriority && drain_inbound() > 0) continue;
      }

      // Current bucket is empty: try to find higher-priority work elsewhere
      // before touching lower-priority local buckets (Algorithm 1, L22).
      const std::uint64_t next = buckets_.min_non_empty();
      if (try_steal_and_process(next)) continue;

      if (next != kInfPriority) {
        // Advance to the next local bucket (L29-32): move its chunks into
        // the work-stealing deque.
        my_.inc(CId::kBucketAdvances);
        obs::trace_instant(s_.ctx.trace, tid_, EK::kBucketAdvance, next);
        publish_curr(next);
        pour_bucket(next);
        continue;
      }
      if (terminate()) return;
    }
  }

  /// Every chunk-pool allocation goes through here so the alloc rate is
  /// observable (kChunkAllocs + trace instants).
  ChunkT* alloc_chunk() {
    my_.inc(CId::kChunkAllocs);
    obs::trace_instant(s_.ctx.trace, tid_, EK::kChunkAlloc);
    return pool_.get();
  }

  // --- the fragment view ----------------------------------------------------
  // Chunks and queues speak global ids; rows and distances are indexed by
  // local id. Without Relay the view starts at vertex 0 and the translation
  // compiles away.

  [[nodiscard]] VertexId local(VertexId v) const {
    if constexpr (Relay) {
      return v - view_.begin;
    } else {
      return v;
    }
  }
  [[nodiscard]] bool owns(VertexId v) const {
    if constexpr (Relay) {
      return v >= view_.begin && v < view_.end;
    } else {
      return true;
    }
  }
  [[nodiscard]] Distance load(VertexId v) const {
    return dist_.load(local(v));
  }
  /// Bucket level of v's current distance (kInfPriority when infinite).
  [[nodiscard]] std::uint64_t level_of(VertexId v) const {
    const Distance d = load(v);
    return d == kInfDist ? kInfPriority
                         : static_cast<std::uint64_t>(d) / s_.delta;
  }
  [[nodiscard]] std::uint32_t out_degree(VertexId v) const {
    const VertexId lv = local(v);
    return static_cast<std::uint32_t>(view_.offsets[lv + 1] -
                                      view_.offsets[lv]);
  }

  /// Leaf pruning (§4.4): a shortest-path-tree leaf (Graph::is_leaf, read
  /// off this fragment's rows) can never improve another vertex; its
  /// distance is updated but it is never scheduled.
  [[nodiscard]] bool prunable(VertexId v) const {
    return prune_leaves_ && out_degree(v) <= leaf_degree_;
  }

  /// Cancellation, or a budgeted run that has processed its budget of
  /// vertices. Both leave through the same exits.
  [[nodiscard]] bool stop_requested() const {
    return progress_ >= budget_ || s_.ctx.stop_requested();
  }

  /// A budget stop, between two vertices: hands each entry still queued in
  /// the buffer, deque and buckets that no later lowering superseded to the
  /// log's frontier (wasp_sssp_seeded). The chunks stay with the arena.
  void pause() {
    const auto hand_over = [&](const ChunkT* c) {
      for (std::uint32_t i = 0; i < c->size(); ++i)
        if (!is_stale(c->peek(i), c->priority())) log_->pause(c->peek(i));
    };
    hand_over(buffer_);
    while (const ChunkT* c = deque_->pop_bottom()) hand_over(c);
    for (const ChunkT* c : buckets_.head)
      for (; c != nullptr; c = c->next) hand_over(c);
  }

  /// This worker's relax_to just lowered v: a seeded run records it
  /// (LoweredLog). Called before the leaf test, since a pruned leaf's
  /// distance changed too.
  void note_lowered(VertexId v) {
    if (log_ != nullptr) log_->append(tid_, v);
  }

  // --- current bucket ----------------------------------------------------

  void publish_curr(std::uint64_t level) {
    curr_cache_ = level;
    s_.curr.publish(tid_, level);  // release (curr_board.hpp)
  }

  /// Pops one vertex from the buffer chunk, refilling it from the deque
  /// when empty (popped chunks are recycled as the buffer, §4.3).
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
      // Chunk-drain lookahead: the LIFO order of the remaining entries is
      // already decided, so warm the distance entry and adjacency offsets
      // of the vertex we will drain kPrefetchLookahead pops from now.
      if (!buffer_->empty()) {
        const VertexId ahead = local(buffer_->peek(
            std::min(kPrefetchLookahead - 1, buffer_->size() - 1)));
        prefetch_read(dist_.prefetch_addr(ahead));
        prefetch_read(view_.offsets + ahead);
        my_.inc(CId::kPrefetchIssued, 2);
      }
    }
    return true;
  }

  void drain_current_bucket() {
    VertexId u;
    std::uint64_t prio;
    std::uint32_t begin, end;
    // Cancellation point, tested before the pop so that a stop falls
    // between two vertices: what is left stays queued for pause().
    while (!stop_requested() && pop_current(u, prio, begin, end)) {
      if (is_stale(u, prio)) {
        my_.inc(CId::kStaleSkips);
        continue;
      }
      process_neighborhood(u, prio, begin, end);
    }
  }

  /// Algorithm 1 line 20: skip entries superseded by a better path.
  [[nodiscard]] bool is_stale(VertexId u, std::uint64_t prio) const {
    return static_cast<std::uint64_t>(load(u)) <
           prio * static_cast<std::uint64_t>(s_.delta);
  }

  // --- pushing updates ---------------------------------------------------

  /// Algorithm 1, push_to_buckets: current-level vertices go to the current
  /// bucket (buffer -> deque), others to the thread-local bucket list.
  void push_to_buckets(VertexId v, std::uint64_t level) {
    if (level == curr_cache_) {
      if (buffer_->full()) {
        deque_->push_bottom(buffer_);
        buffer_ = alloc_chunk();
        wake_for_surplus();
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

  /// Pushes a pre-built chunk (range chunks from neighborhood
  /// decomposition). Current-level chunks go straight to the deque so other
  /// threads can steal slices of the big neighborhood immediately.
  void push_chunk(ChunkT* c, std::uint64_t level) {
    c->set_priority(level);
    if (level == curr_cache_) {
      deque_->push_bottom(c);
      wake_for_surplus();
      return;
    }
    ChunkT*& head = buckets_.at(level);
    c->next = head;
    head = c;
    buckets_.min_hint = std::min(buckets_.min_hint, level);
  }

  // --- relaxation (Algorithm 1 lines 1-15 + §4.4 optimizations) ----------

  void process_neighborhood(VertexId u, std::uint64_t prio, std::uint32_t begin,
                            std::uint32_t end) {
    const std::uint32_t degree = out_degree(u);
    if (end == kFullRange) {
      end = degree;
      // Neighborhood decomposition (§4.4): split a huge adjacency into
      // theta-sized range chunks; we keep the first range, the rest become
      // stealable single-vertex chunks at the same priority.
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

    const WEdge* edges = view_.edges + view_.offsets[local(u)];
    Distance du = load(u);

    // Bidirectional relaxation (§4.4): for small undirected neighborhoods,
    // pull a potentially better distance for u before pushing. Only when the
    // whole list is relaxed here: a pull lowers dist[u] without rescheduling
    // u, so the slices already pushed at the old level would read as stale
    // and never be relaxed (possible when theta < 8). Not across fragments:
    // a pull would read neighbour distances in remote shards.
    if (!Relay && s_.config.bidirectional_relaxation &&
        s_.graph.is_undirected() && degree <= 8 && begin == 0 &&
        end == degree) {
      Distance best = du;
      for (std::uint32_t j = 0; j < degree; ++j) {
        my_.inc(CId::kRelaxations);
        const Distance through = saturating_add(load(edges[j].dst), edges[j].w);
        if (through < best) best = through;
      }
      if (best < du) {
        if (dist_.relax_to(local(u), best)) {
          my_.inc(CId::kUpdates);
          note_lowered(u);
        }
        du = load(u);
      }
    }

    my_.inc(CId::kVerticesProcessed);
    ++progress_;
    if ((progress_ & 0xFFFu) == 0) {
      if (s_.ctx.observer != nullptr)
        s_.ctx.observer->on_progress(tid_, progress_);
      // Deadline poll at the observer cadence (one clock read per 4096
      // vertices); a fired deadline self-cancels the token and the next
      // stop_requested() poll unwinds the worker.
      (void)s_.ctx.poll_cancel();
    }
    // Indexed drain over the interleaved records so edge j can prefetch the
    // dist entry of edge j + kPrefetchLookahead's target (the
    // data-dependent miss).
    for (std::uint32_t j = begin; j < end; ++j) {
      if (j + kPrefetchLookahead < end) {
        const VertexId target = edges[j + kPrefetchLookahead].dst;
        if (owns(target)) prefetch_read(dist_.prefetch_addr(local(target)));
      }
      const WEdge& e = edges[j];
      my_.inc(CId::kRelaxations);
      const Distance nd = saturating_add(du, e.w);
      if (!owns(e.dst)) {
        // Boundary edge: defer to the owner through its remote queue. The
        // receiver's relax CAS is the arbiter (its shard may already hold
        // something better).
        send_remote(e.dst, nd);
        continue;
      }
      if (dist_.relax_to(local(e.dst), nd)) {
        my_.inc(CId::kUpdates);
        note_lowered(e.dst);
        if (prunable(e.dst)) continue;
        push_to_buckets(e.dst, static_cast<std::uint64_t>(nd) / s_.delta);
      }
    }
    if (end - begin > kPrefetchLookahead)
      my_.inc(CId::kPrefetchIssued, end - begin - kPrefetchLookahead);
  }

  // --- remote queues (relay runs) ------------------------------------------

  void send_remote(VertexId v, Distance d) {
    my_.inc(CId::kRemoteRelaxations);
    const int dst = s_.part->owner_of(v);
    if (sender_.send(dst, v, d)) published(dst);
  }

  /// Publishes every open outbound batch (bucket boundary / pre-idle).
  void flush_outbound() {
    for (int dst = 0; dst < s_.net.num_fragments(); ++dst) {
      if (sender_.flush(dst)) published(dst);
    }
  }

  /// Wake-on-publish: a batch now waits on fragment `dst`'s channel, and
  /// only dst's members drain it, so give one parked member the chance.
  /// Out of line so the wake's fence and loop stay out of the edge loop of
  /// process_neighborhood (about 1 ms of a 27 ms two-fragment road solve).
  [[gnu::noinline]] void published(int dst) {
    my_.inc(CId::kRemoteBatches);
    wake_parked(s_.members[static_cast<std::size_t>(dst)], 1);
  }

  /// Grabs this fragment's inbound channel and applies the records to the
  /// local shard, scheduling improvements into the local buckets. Returns
  /// the number of vertices scheduled. Caller contract (termination
  /// soundness): this worker's board slot must not read kInfPriority while
  /// the call can schedule work — work_loop() calls it under a real level,
  /// terminate() under kStealingPriority. No note_lowered here: only a run
  /// with more than one fragment drains, and a seeded run has one.
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
          if (dist_.relax_to(local(r.vertex), r.dist)) {
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

  // --- work stealing (Algorithm 2 + §4.2 ablation policies) --------------
  //
  // Victims are the members of this worker's fragment: every worker in a
  // one-fragment run, and never a worker across a fragment boundary (with
  // aligned placement, never across a NUMA node).

  [[nodiscard]] const std::vector<int>& members() const {
    return s_.members[static_cast<std::size_t>(frag_)];
  }

  /// Attempts to steal chunks worth leaving local bucket `next` for (with
  /// the priority policy: from victims at least kStealMinGap levels better,
  /// or from anyone when `next` is kInfPriority).
  /// On success, publishes curr = best stolen priority, processes all stolen
  /// chunks immediately (stolen chunks are never re-exposed, §4.1), and
  /// returns true.
  bool try_steal_and_process(std::uint64_t next) {
    // Deadline poll at sweep entry: steal storms never process a vertex, so
    // without this a livelocked sweep loop would only notice an external
    // cancel, not its own expired budget.
    (void)s_.ctx.poll_cancel();
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
    assert(budget_ == kNoWorkBudget);  // a budgeted run has no victim

    std::uint64_t best = kInfPriority;
    for (int i = 0; i < count; ++i)
      best = std::min(best, stolen[i]->priority());
    publish_curr(best);  // Algorithm 1 line 23

    for (int i = 0; i < count; ++i) {
      ChunkT* c = stolen[i];
      const std::uint64_t prio = c->priority();
      const bool range = c->is_range();
      const std::uint32_t rb = c->range_begin();
      const std::uint32_t re = c->range_end();
      while (!c->empty()) {
        // Cancellation point: stop processing but keep recycling the stolen
        // chunks (they are never re-exposed) so ownership stays tidy.
        if (stop_requested()) {
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
      pool_.put(c);  // stolen chunks are recycled by the thief (§4.3)
    }
    return true;
  }

  /// The paper's protocol (Algorithm 2) with a one-bucket drift window:
  /// walk NUMA tiers nearest-first; within a tier, steal one chunk from
  /// every victim steal_window_admits (curr_board.hpp); stop at the first
  /// tier that yields anything. The paper steals from any victim at least
  /// as good as our best local bucket; requiring a two-level lead keeps
  /// each worker's wavefront on its own core when the victim is only a
  /// bucket ahead. A skipped victim still counts as one attempt.
  int steal_priority_numa(std::uint64_t next, ChunkT** out) {
    const VictimTiers& tiers = *s_.tiers[static_cast<std::size_t>(frag_)];
    int count = 0;
    for (const auto& tier :
         tiers.tiers(s_.local_idx[static_cast<std::size_t>(tid_)])) {
      for (const int lv : tier) {
        const int t = members()[static_cast<std::size_t>(lv)];
        my_.inc(CId::kStealAttempts);
        obs::trace_instant(s_.ctx.trace, tid_, EK::kStealAttempt,
                           static_cast<std::uint64_t>(t));
        const std::uint64_t victim_curr = s_.curr.probe(t);  // acquire
        if (!steal_window_admits(victim_curr, next)) {
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

  /// One successful steal, with steal-locality accounting (exported by
  /// bench/fig06_scaling): a steal is local when thief and victim workers
  /// are pinned to the same NUMA node of the run's topology.
  void record_steal(int victim) {
    my_.inc(CId::kSteals);
    my_.inc(s_.node_of[static_cast<std::size_t>(victim)] ==
                    s_.node_of[static_cast<std::size_t>(tid_)]
                ? CId::kLocalSteals
                : CId::kRemoteSteals);
  }

  /// Observer + trace notification for one victim probe. The call count
  /// matches the kStealAttempts counter exactly (tests rely on it).
  void notify_steal(int victim, bool success) {
    if (success)
      obs::trace_instant(s_.ctx.trace, tid_, EK::kStealSuccess,
                         static_cast<std::uint64_t>(victim));
    if (s_.ctx.observer != nullptr)
      s_.ctx.observer->on_steal(tid_, victim, success);
  }

  /// A uniformly random fragment member other than this worker.
  int random_victim() {
    const int m = static_cast<int>(members().size());
    int lv =
        static_cast<int>(rng_.next_below(static_cast<std::uint64_t>(m - 1)));
    if (lv >= s_.local_idx[static_cast<std::size_t>(tid_)]) ++lv;
    return members()[static_cast<std::size_t>(lv)];
  }

  /// Steals one chunk from `t` (a random-policy attempt).
  ChunkT* steal_from(int t) {
    my_.inc(CId::kStealAttempts);
    obs::trace_instant(s_.ctx.trace, tid_, EK::kStealAttempt,
                       static_cast<std::uint64_t>(t));
    ChunkT* c = s_.deques[static_cast<std::size_t>(t)]->steal();
    notify_steal(t, c != nullptr);
    if (c != nullptr) record_steal(t);
    return c;
  }

  /// Traditional random-victim stealing (§4.2 ablation): up to
  /// steal_retries+1 random victims, taking any available chunk.
  int steal_random(ChunkT** out) {
    if (members().size() <= 1) return 0;
    for (int attempt = 0; attempt <= s_.config.steal_retries; ++attempt) {
      out[0] = steal_from(random_victim());
      if (out[0] != nullptr) return 1;
    }
    return 0;
  }

  /// MultiQueue-like two-choice stealing (§4.2 ablation): sample two
  /// victims, steal from the one with the better current priority.
  int steal_two_choice(ChunkT** out) {
    if (members().size() <= 1) return 0;
    for (int attempt = 0; attempt <= s_.config.steal_retries; ++attempt) {
      const int a = random_victim();
      const int b = random_victim();
      const std::uint64_t ca = s_.curr.probe(a);  // acquire (curr_board.hpp)
      const std::uint64_t cb = s_.curr.probe(b);  // acquire (curr_board.hpp)
      out[0] = steal_from(ca <= cb ? a : b);
      if (out[0] != nullptr) return 1;
    }
    return 0;
  }

  // --- termination (§4.3) -------------------------------------------------

  /// Called with no local work anywhere. Returns true when the whole
  /// computation is finished.
  ///
  /// Correctness argument: work always resides with a thread whose `curr`
  /// is not kInfPriority (workers publish a real level before exposing or
  /// processing work, and kStealingPriority before sweeping). The only way
  /// work crosses from a not-yet-scanned thread to an already-scanned one
  /// is a termination-mode steal, and every such sweep increments
  /// steal_epoch *before* it can steal. Hence "epoch stable across a scan
  /// that saw every thread idle" proves no work existed during the scan.
  ///
  /// Parked workers keep this argument intact: a parker publishes
  /// kInfPriority before it announces itself and never steals while
  /// parked, so it reads as idle and moves no work behind a scan.
  ///
  /// A relay run hardens the double-scan into a barrier. A passing scan
  /// (also requiring zero in-flight remote records) casts a VOTE — a
  /// seq_cst increment of s_.quiesced — instead of returning, and the
  /// worker keeps scanning and draining until all p votes are in; a sweep
  /// revokes the vote before touching any work source. A one-fragment run
  /// survives a worker exiting on a stale verdict (the survivors finish the
  /// work it missed), but here an exited worker's fragment could receive
  /// records with no member left to drain them. Exit soundness:
  /// quiesced == p (every vote, revoke and the exit load are seq_cst)
  /// implies no work exists anywhere at that instant.
  ///  - Local work: a voted worker holds none. It votes only with its own
  ///    buckets, deque, buffer and open batches empty (work_loop() flushes
  ///    and drains to exhaustion first), and a sweep that acquires work
  ///    revokes first.
  ///  - Remote work: in_flight counts every record from before its batch is
  ///    grabbable until after it is applied (remote_queue.hpp). Batches are
  ///    published only by unvoted workers, which re-vote only after a scan
  ///    reads the true in_flight == 0, so an outstanding record keeps its
  ///    publisher unvoted.
  /// The scan verdict gates the vote, not the exit, so the acquire board
  /// and epoch reads only affect vote churn. The in-flight read precedes
  /// the board scan on purpose: the counter's seq_cst RMW chain carries each
  /// drainer's release clock, and every drain is sequenced after that
  /// drainer's busy publication, so a scanner that reads the true zero
  /// cannot then see a worker still busy with drained records as idle.
  /// A parked worker may hold a vote (it holds no work); casting a vote
  /// wakes parked peers so each one reaches its own vote.
  bool terminate() {
    const int p = s_.num_workers;
    bool sweep = true;   // sweep on entry; afterwards only when work is seen
    bool voted = false;  // relay runs: this worker's vote is counted
    int rounds = 0;      // failed rounds that saw a peer working, since the
                         // last park
    obs::trace_begin(s_.ctx.trace, tid_, EK::kTerminationScan);
    for (;;) {
      // Cancellation point (with deadline check — idle scans are exactly
      // where an overdue run spins): leave as if terminated; peers observe
      // us idle and exit through their own polls or a genuine verdict. A
      // vote is not revoked: every worker sees the same sticky stop flag.
      if (s_.ctx.poll_cancel()) {
        publish_curr(kInfPriority);
        obs::trace_end(s_.ctx.trace, tid_, EK::kTerminationScan, 1);
        return true;
      }
      if (sweep) {
        if (Relay && voted) {
          // Revoke BEFORE stealing or draining: the exit argument needs
          // "voted implies holding no work" at every instant, so the
          // seq_cst decrement must precede any chance of acquiring work.
          s_.quiesced.fetch_sub(1, std::memory_order_seq_cst);
          voted = false;
        }
        // acq_rel: the epoch bump orders this sweep's steal or drain
        // between the double-scan's acquire reads (below), invalidating any
        // scan that it raced with.
        s_.steal_epoch.fetch_add(1, std::memory_order_acq_rel);
        publish_curr(kStealingPriority);
        // A drain that scheduled records leaves them in our buckets (under
        // kStealingPriority, so no scanner saw us idle meanwhile); let
        // work_loop() advance to them.
        if (try_steal_and_process(kInfPriority) ||
            (Relay && drain_inbound() > 0)) {
          obs::trace_end(s_.ctx.trace, tid_, EK::kTerminationScan, 0);
          return false;
        }
        publish_curr(kInfPriority);
      }

      my_.inc(CId::kTerminationScans);
      Timer idle_timer;
      // Acquire epoch reads bracket the scan: any sweep that bumps the
      // epoch between them invalidates this scan (§4.3 double-scan).
      const std::uint64_t epoch_before =
          s_.steal_epoch.load(std::memory_order_acquire);
      // True in-flight count first; see the function comment for why this
      // read precedes the board scan. seq_cst (remote_queue.hpp).
      const std::uint64_t in_flight = Relay ? s_.net.in_flight() : 0;
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
        // A spurious wakeup (a scheduler fault) distrusts the verdict and
        // forces one more sweep (which also exercises the revoke path once
        // this worker has voted); termination must still be reached once
        // the injected doubt stops firing.
        if (verify::inject(verify::Fault::kSpuriousWakeup)) {
          sweep = true;
          record_idle(idle_timer.nanoseconds());
          continue;
        }
        if (Relay && !voted) {
          // seq_cst: the exit load below must observe true counts.
          s_.quiesced.fetch_add(1, std::memory_order_seq_cst);
          voted = true;
          // Wake-on-vote: a parked peer cannot vote, so the barrier would
          // wait on it forever.
          wake_parked(s_.everyone, p);
        }
        // seq_cst: the barrier. All p voted at this instant => quiescent.
        if (!Relay || s_.quiesced.load(std::memory_order_seq_cst) ==
                          static_cast<std::uint32_t>(p)) {
          record_idle(idle_timer.nanoseconds());
          obs::trace_end(s_.ctx.trace, tid_, EK::kTerminationScan, 1);
          if (s_.ctx.observer != nullptr) s_.ctx.observer->on_termination(tid_);
          return true;
        }
      }
      // Re-sweep only when a thread holds real-priority work or our own
      // fragment's channel has batches (pending() is advisory; a miss only
      // delays one round); if only thieves remain, stay idle and let the
      // epoch settle. Park once the spin budget is spent while a peer still
      // works: sweeping on would only load the memory system that peer
      // needs. Our own slot is never below kStealingPriority here, so a
      // one-thread team never parks.
      sweep = someone_working || (Relay && s_.net.pending(frag_));
      if (someone_working && ++rounds >= kParkAfterRounds) {
        rounds = 0;
        park();
      } else {
        std::this_thread::yield();
      }
      record_idle(idle_timer.nanoseconds());
    }
  }

  void record_idle(std::uint64_t ns) {
    my_.inc(CId::kIdleNs, ns);
    my_.observe(obs::HistId::kIdleScanNs, ns);
  }

  // --- bucket advance ----------------------------------------------------

  /// Algorithm 1 line 32: moves all chunks of bucket `level` into the
  /// current-bucket deque.
  void pour_bucket(std::uint64_t level) {
    ChunkT* c = buckets_.head[level];
    buckets_.head[level] = nullptr;
    while (c != nullptr) {
      ChunkT* next_chunk = c->next;
      c->next = nullptr;
      deque_->push_bottom(c);
      c = next_chunk;
    }
    wake_for_surplus();
  }

  // --- parking idle workers ----------------------------------------------
  //
  // A store-buffering pair of seq_cst fences: the parker announces, fences
  // and re-scans; a waker publishes (a deque push, a remote batch, a vote,
  // or its final kInfPriority on the way out), fences and reads the park
  // words. At least one side sees the other, so a parker is either woken or
  // stays awake. docs/CONCURRENCY.md has the termination argument.

  /// Blocks this idle worker until a peer wakes it. Called from terminate()
  /// with curr already kInfPriority, so every scan counts the worker idle
  /// while it sleeps. Returns with the park word reset to kAwake.
  void park() {
    auto& word = s_.park[static_cast<std::size_t>(tid_)].value;
    // Relaxed: only the owner writes kParked, and the fence below orders
    // the announce before the re-scan.
    word.store(kParked, std::memory_order_relaxed);
    // seq_cst: pairs with the waker's fence in wake_parked(). Either the
    // waker's read of this word sees the announce, or this re-scan sees
    // everything the waker published before its fence.
    verify::thread_fence(std::memory_order_seq_cst);
    if (!must_stay_awake()) {
      my_.inc(CId::kWorkerParks);
      // A spurious wake-up (a scheduler fault) returns before any peer
      // woke us; the worker resumes its termination rounds as after a
      // real wake.
      if (!verify::inject(verify::Fault::kSpuriousWakeup)) {
        // Relaxed: a woken worker re-synchronizes through its next sweep
        // and scan; the wait only has to notice the word change.
        word.wait(kParked, std::memory_order_relaxed);
      }
    }
    // Relaxed: owner-only reset (a waker's claim CAS writes the same value).
    word.store(kAwake, std::memory_order_relaxed);
  }

  /// The parker's re-scan, behind its fence. Stays awake when its own
  /// fragment's channel holds a batch or a fellow member's deque holds work
  /// (this worker could take either), or when every peer is idle: they may
  /// all be parked, so nobody would be left to wake this worker, and the
  /// verdict (or vote) is its own to reach.
  [[nodiscard]] bool must_stay_awake() const {
    if (Relay && s_.net.pending(frag_)) return true;
    bool all_idle = true;
    for (int t = 0; t < s_.num_workers; ++t) {
      if (t == tid_) continue;
      if (s_.frag_of[static_cast<std::size_t>(t)] == frag_ &&
          !s_.deques[static_cast<std::size_t>(t)]->empty_estimate())
        return true;
      if (s_.curr.scan(t) != kInfPriority) all_idle = false;
    }
    return all_idle;
  }

  /// Wake-on-push: once this owner's deque holds a stealable surplus, give
  /// one parked fellow member the chance to take it. A lone member has no
  /// thief.
  void wake_for_surplus() {
    if (members().size() > 1 && deque_->size_estimate() >= kWakeSurplus)
      wake_parked(members(), 1);
  }

  /// Claims and notifies up to `n` parked workers of `group`, starting after
  /// this worker's tid.
  void wake_parked(const std::vector<int>& group, int n) {
    const std::size_t m = group.size();
    if (s_.num_workers <= 1) return;
    // seq_cst: pairs with the parker's fence in park(). Everything this
    // worker published before it (deque pushes, remote batches, its vote,
    // its last curr level) is visible to a parker whose fence comes later
    // in S; otherwise these reads see that parker's announce.
    verify::thread_fence(std::memory_order_seq_cst);
    for (std::size_t i = 0; i < m && n > 0; ++i) {
      const int t = group[(static_cast<std::size_t>(tid_) + 1 + i) % m];
      if (t == tid_) continue;
      auto& word = s_.park[static_cast<std::size_t>(t)].value;
      std::uint32_t expected = kParked;
      // Relaxed: the fence above orders the read, and the claim CAS only
      // decides which waker notifies (an RMW reads the latest value).
      if (word.load(std::memory_order_relaxed) == kParked &&
          word.compare_exchange_strong(expected, kAwake,
                                       std::memory_order_relaxed,
                                       std::memory_order_relaxed)) {
        my_.inc(CId::kWorkerWakes);
        word.notify_one();
        --n;
      }
    }
  }

  WaspShared<ChunkT>& s_;
  const int tid_;
  const int frag_;
  const FragmentView& view_;
  AtomicDistances& dist_;  ///< this fragment's distances (local indices)
  BasicChunkPool<ChunkT> pool_;
  obs::MetricsShard& my_;
  Xoshiro256 rng_;
  ChaseLevDeque<ChunkT*>* deque_;
  RemoteSender sender_;
  ChunkT* buffer_ = nullptr;
  BucketList<ChunkT> buckets_;
  std::uint64_t curr_cache_ = kInfPriority;
  std::uint64_t progress_ = 0;
  LoweredLog* const log_;            ///< WaspShared::log
  const std::uint64_t budget_;       ///< WaspShared::budget
  const bool prune_leaves_;          ///< config.leaf_pruning
  const std::uint32_t leaf_degree_;  ///< Graph::leaf_degree()
};

template <typename ChunkT, bool Relay>
void launch(WaspShared<ChunkT>& shared, std::span<const VertexId> seeds,
            bool cold) {
  shared.ctx.team.run([&](int tid) {
    verify::ScopedSchedule schedule_guard(tid);
    WaspWorker<ChunkT, Relay> worker(shared, tid);
    worker.seed(seeds, cold);
    worker.run();
  });
}

/// The one engine entry behind wasp_sssp and wasp_sssp_seeded. A cold run
/// (no `log`) plants `seeds` (the source) at distance 0 in fresh distances
/// and copies them into result.dist. A warm run plants them at the bounds
/// the caller pre-loaded into ctx.dist, always as one fragment, appends
/// what it lowers to `log`, stops at `budget` processed vertices when it
/// has one worker, and leaves result.dist empty.
template <typename ChunkT>
SsspResult run_wasp(const Graph& g, std::span<const VertexId> seeds,
                    Weight delta, const WaspConfig& config, RunContext& ctx,
                    LoweredLog* log, std::uint64_t budget) {
  const bool cold = log == nullptr;
  const int p = ctx.team.size();
  std::shared_ptr<const NumaTopology> topo = config.topology;
  if (!topo) topo = std::make_shared<NumaTopology>(NumaTopology::detect());
  std::vector<int> cpu_of(static_cast<std::size_t>(p));
  for (int t = 0; t < p; ++t)
    cpu_of[static_cast<std::size_t>(t)] = ctx.team.cpu_of(t) % topo->num_cpus();

  // A one-fragment run never builds or looks up a partition. Otherwise
  // reuse the cached fragments and shards when they were built for this
  // graph content, fragment count, team and topology; else drop the stale
  // entry first, so at most one CSR copy is alive, and build afresh.
  const int want = cold ? config.fragments(p) : 1;
  const PartitionCache::Key key{g.stamp(), want, p, topo};
  const PartitionCache::Entry* frags = nullptr;
  std::unique_ptr<PartitionCache::Entry> built;
  if (want > 1 && ctx.partitions != nullptr) frags = ctx.partitions->find(key);
  if (want > 1 && frags == nullptr) {
    if (ctx.partitions != nullptr) ctx.partitions->entry.reset();
    built = std::make_unique<PartitionCache::Entry>(PartitionCache::Entry{
        key, GraphPartition::build(g, *topo, want, p > 1 ? &ctx.team : nullptr),
        {}});
    frags = built.get();
  }
  const GraphPartition* part = frags != nullptr ? &frags->partition : nullptr;
  const int f_count = part != nullptr ? part->num_fragments() : 1;

  WaspShared<ChunkT> shared(g, delta, config, ctx, part, log, f_count, p,
                            *topo, cpu_of);
  if (!cold && p == 1) shared.budget = budget;
  if (part == nullptr) {
    // The whole Graph over the run's array: the pool entry Solver::solve
    // acquired, or a repair's pre-loaded bounds.
    shared.views[0] =
        FragmentView{0, g.num_vertices(), g.offsets_data(), g.edge_data(),
                     &ctx.distances()};
  } else {
    if (built != nullptr) {
      // Placement phase: each fragment's leader constructs its distance
      // shard — constructing the entries at kInfDist is the first touch,
      // so the shard's pages land on the leader's node. The team join
      // publishes the shard pointers to every worker of the solve phase.
      built->shards.resize(static_cast<std::size_t>(f_count));
      ctx.team.run([&](int tid) {
        verify::ScopedSchedule schedule_guard(tid);
        if (shared.local_idx[static_cast<std::size_t>(tid)] == 0) {
          const int f = shared.frag_of[static_cast<std::size_t>(tid)];
          built->shards[static_cast<std::size_t>(f)] =
              std::make_unique<AtomicDistances>(
                  part->fragment(f).num_vertices());
        }
      });
      ctx.metrics.shard(0).inc(CId::kPartitionBuilds);
      ctx.metrics.shard(0).inc(CId::kEpochSweeps);
      // Cached only now that it is complete: a build that threw above left
      // the cache empty, never half-built.
      if (ctx.partitions != nullptr) ctx.partitions->entry = std::move(built);
    } else {
      // Warm: refill the cached shards, one O(n) fill of the set (the same
      // membership placed them, so their pages already sit on their
      // leaders' nodes).
      for (const auto& shard : frags->shards) shard->fill();
      ctx.metrics.shard(0).inc(CId::kEpochSweeps);
    }
    for (int f = 0; f < f_count; ++f) {
      const GraphPartition::Fragment& frag = part->fragment(f);
      shared.views[static_cast<std::size_t>(f)] = FragmentView{
          frag.begin, frag.end, frag.offsets.data(), frag.edge_data(),
          frags->shards[static_cast<std::size_t>(f)].get()};
    }
  }

  // Pre-publish every seeding worker busy at its minimum seed level, so no
  // worker can pass the termination scan before the seeds are planted
  // (same release site as every in-run publication — the board owns the
  // ordering). A cold seed sits at level 0; its distance is stored by the
  // seeding worker itself (WaspWorker::seed).
  std::vector<std::uint64_t> min_level(static_cast<std::size_t>(p),
                                       kInfPriority);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const Distance d = cold ? 0 : shared.views[0].dist->load(seeds[i]);
    if (d == kInfDist) continue;
    auto& slot =
        min_level[static_cast<std::size_t>(shared.seed_worker(i, seeds[i]))];
    slot = std::min(slot, static_cast<std::uint64_t>(d) / delta);
  }
  SsspResult result;
  if (std::all_of(min_level.begin(), min_level.end(),
                  [](std::uint64_t l) { return l == kInfPriority; })) {
    // Only a warm run gets here (a cold seed sits at 0): nothing to repair,
    // the bounds stand as they are, zero parallel work, an empty log.
    finalize_result(ctx, 0.0, result);
    return result;
  }
  for (int t = 0; t < p; ++t) {
    if (min_level[static_cast<std::size_t>(t)] != kInfPriority)
      shared.curr.publish(t, min_level[static_cast<std::size_t>(t)]);
  }

  Timer timer;
  if (part == nullptr) {
    launch<ChunkT, false>(shared, seeds, cold);
  } else {
    launch<ChunkT, true>(shared, seeds, cold);
  }
  finalize_result(ctx, timer.seconds(), result);
  if (!cold) return result;  // the caller patches from the log
  if (part == nullptr) {
    result.dist = shared.views[0].dist->snapshot();
  } else {
    result.dist.resize(g.num_vertices());
    for (const FragmentView& view : shared.views) {
      for (VertexId v = 0; v < view.end - view.begin; ++v)
        result.dist[view.begin + v] = view.dist->load(v);
    }
  }
  return result;
}

/// The chunk capacity is a compile-time property (paper §4.3: "chosen at
/// compilation time"); dispatch to the instantiations we ship.
SsspResult run_wasp(const Graph& g, std::span<const VertexId> seeds,
                    Weight delta, const WaspConfig& config, RunContext& ctx,
                    LoweredLog* log, std::uint64_t budget) {
  switch (config.chunk_capacity) {
    case 16:
      return run_wasp<BasicChunk<16>>(g, seeds, delta, config, ctx, log,
                                      budget);
    case 32:
      return run_wasp<BasicChunk<32>>(g, seeds, delta, config, ctx, log,
                                      budget);
    case 64:
      return run_wasp<BasicChunk<64>>(g, seeds, delta, config, ctx, log,
                                      budget);
    case 128:
      return run_wasp<BasicChunk<128>>(g, seeds, delta, config, ctx, log,
                                       budget);
    case 256:
      return run_wasp<BasicChunk<256>>(g, seeds, delta, config, ctx, log,
                                       budget);
    default:
      throw InvalidOptionsError(
          "wasp: chunk_capacity must be one of 16, 32, 64, 128, 256");
  }
}

}  // namespace

SsspResult wasp_sssp(const Graph& g, VertexId source, Weight delta,
                     const WaspConfig& config, RunContext& ctx) {
  return run_wasp(g, std::span<const VertexId>(&source, 1), delta, config,
                  ctx, /*log=*/nullptr, kNoWorkBudget);
}

SsspResult wasp_sssp_seeded(const Graph& g, std::span<const VertexId> seeds,
                            Weight delta, const WaspConfig& config,
                            RunContext& ctx, LoweredLog& log,
                            std::uint64_t budget) {
  if (ctx.dist == nullptr || ctx.dist->size() != g.num_vertices() ||
      log.workers() < ctx.team.size())
    throw InvalidOptionsError(
        "wasp_sssp_seeded: ctx.dist must be pre-loaded with warm bounds "
        "sized to the graph, and the log reset to the team size");
  return run_wasp(g, seeds, delta, config, ctx, &log, budget);
}

}  // namespace wasp
