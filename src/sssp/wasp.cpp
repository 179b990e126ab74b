#include "sssp/wasp.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <stdexcept>
#include <thread>

#include "concurrent/chase_lev_deque.hpp"
#include "concurrent/chunk.hpp"
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

/// `curr` value of a thread that is out of local work and sweeping victims.
/// Distinct from kInfPriority so a thief holding a freshly stolen chunk can
/// never be mistaken for an idle thread by the termination scan.
constexpr std::uint64_t kStealingPriority = kInfPriority - 1;

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
/// Templated on the chunk type so the sensitivity bench can instantiate
/// Wasp at several chunk capacities (the paper's default is 64, §4.3).
template <typename ChunkT>
struct WaspShared {
  const Graph& graph;
  AtomicDistances& dist;
  Weight delta;
  const WaspConfig& config;
  RunContext& ctx;  ///< metrics shards, trace recorder, observer
  CurrBoard curr;  ///< per-worker published levels (sssp/curr_board.hpp)
  std::vector<std::unique_ptr<ChaseLevDeque<ChunkT*>>> deques;
  VictimTiers tiers;
  std::vector<int> node_of;  ///< worker -> NUMA node (steal-locality counters)
  BasicChunkArena<ChunkT> arena;
  /// Bumped whenever a thread enters a termination-mode steal sweep; the
  /// double-scan termination check needs it to detect work migrating behind
  /// a scan (see WaspWorker::terminate).
  verify::atomic<std::uint64_t> steal_epoch{0};
  /// Per-worker park word (kAwake / kParked): an idle worker announces
  /// itself here before it blocks, and pushers and leaving workers wake it
  /// through it (WaspWorker::park / wake_parked). Starts kAwake.
  std::vector<CachePadded<verify::atomic<std::uint32_t>>> park;

  WaspShared(const Graph& g, AtomicDistances& d, Weight delta_,
             const WaspConfig& cfg, RunContext& ctx_, int p,
             const NumaTopology& topo, const std::vector<int>& cpu_of)
      : graph(g), dist(d), delta(delta_), config(cfg), ctx(ctx_), curr(p),
        deques(static_cast<std::size_t>(p)), tiers(topo, cpu_of),
        node_of(static_cast<std::size_t>(p)),
        park(static_cast<std::size_t>(p)) {
    for (auto& d_ : deques) d_ = std::make_unique<ChaseLevDeque<ChunkT*>>();
    for (int t = 0; t < p; ++t)
      node_of[static_cast<std::size_t>(t)] =
          topo.node_of_cpu(cpu_of[static_cast<std::size_t>(t)]);
  }
};

/// Per-thread worker implementing Algorithms 1 and 2.
template <typename ChunkT>
class WaspWorker {
 public:
  WaspWorker(WaspShared<ChunkT>& shared, int tid)
      : s_(shared), tid_(tid), pool_(shared.arena),
        my_(shared.ctx.metrics.shard(tid)),
        rng_(hash_mix(0xA5B5ULL + static_cast<std::uint64_t>(tid))),
        deque_(shared.deques[static_cast<std::size_t>(tid)].get()),
        lookahead_(shared.ctx.prefetch_lookahead) {
    buffer_ = alloc_chunk();
  }

  /// Seeds the source vertex into this worker's current bucket (called on
  /// one worker before run()).
  void seed(VertexId source) {
    buffer_->set_priority(0);
    buffer_->push(source);
    publish_curr(0);
  }

  /// Seeds this worker's round-robin share of a warm multi-source frontier
  /// (wasp_sssp_seeded): seeds[i] with i % team_size == tid, pushed at the
  /// coarsened level of its pre-loaded distance. Called before run(), like
  /// seed(); the dispatcher pre-published the same minimum level on the
  /// board, so the termination scan cannot fire before these land.
  void seed_warm(std::span<const VertexId> seeds) {
    const int p = s_.tiers.num_threads();
    std::uint64_t min_level = kInfPriority;
    for (std::size_t i = static_cast<std::size_t>(tid_); i < seeds.size();
         i += static_cast<std::size_t>(p)) {
      const Distance d = s_.dist.load(seeds[i]);
      if (d == kInfDist) continue;  // nothing can relax from an inf bound
      const auto level = static_cast<std::uint64_t>(d) / s_.delta;
      push_to_buckets(seeds[i], level);
      min_level = std::min(min_level, level);
    }
    if (min_level != kInfPriority) publish_curr(min_level);
  }

  /// Runs the work loop, then wakes every parked peer: a worker leaving
  /// run(), by verdict or by cancel, may be the last one awake, and each
  /// parked peer must reach the double-scan verdict (or its own cancel
  /// poll) itself.
  void run() {
    work_loop();
    wake_parked(s_.tiers.num_threads());
  }

 private:
  /// The main work loop (Algorithm 1, work_stealing_shortest_path).
  void work_loop() {
    for (;;) {
      // Cancellation point: abandon unprocessed buckets (arena-owned, freed
      // with the run) and leave through the normal idle path. Publishing
      // kInfPriority lets peers still inside terminate() reach the all-idle
      // verdict even before their own poll fires.
      if (s_.ctx.stop_requested()) {
        publish_curr(kInfPriority);
        return;
      }
      drain_current_bucket();

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

  // --- current bucket ----------------------------------------------------

  void publish_curr(std::uint64_t level) {
    curr_cache_ = level;
    // Chaos: widen the window between deciding a level and publishing it —
    // the interval the kStealingPriority state exists to protect.
    WASP_CHAOS_YIELD(chaos::Point::kDelayCurrPublish);
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
      // of the vertex we will drain `lookahead_` pops from now.
      if (lookahead_ != 0 && !buffer_->empty()) {
        const VertexId ahead =
            buffer_->peek(std::min(lookahead_ - 1, buffer_->size() - 1));
        prefetch_read(s_.dist.prefetch_addr(ahead));
        prefetch_read(s_.graph.offsets_data() + ahead);
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
      // Cancellation point (one relaxed load per pop): leftover entries in
      // the buffer/deque are simply dropped — run() exits next iteration.
      if (s_.ctx.stop_requested()) return;
      if (is_stale(u, prio)) {
        my_.inc(CId::kStaleSkips);
        continue;
      }
      process_neighborhood(u, prio, begin, end);
    }
  }

  /// Algorithm 1 line 20: skip entries superseded by a better path.
  [[nodiscard]] bool is_stale(VertexId u, std::uint64_t prio) const {
    return static_cast<std::uint64_t>(s_.dist.load(u)) <
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
    const Graph& g = s_.graph;
    const std::uint32_t degree = g.out_degree(u);
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

    Distance du = s_.dist.load(u);

    // Bidirectional relaxation (§4.4): for small undirected neighborhoods,
    // pull a potentially better distance for u before pushing. Only when the
    // whole list is relaxed here: a pull lowers dist[u] without rescheduling
    // u, so the slices already pushed at the old level would read as stale
    // and never be relaxed (possible when theta < 8).
    if (s_.config.bidirectional_relaxation && g.is_undirected() &&
        degree <= 8 && begin == 0 && end == degree) {
      Distance best = du;
      for (const WEdge& e : g.out_neighbors(u)) {
        my_.inc(CId::kRelaxations);
        const Distance dn = s_.dist.load(e.dst);
        const Distance through = saturating_add(dn, e.w);
        if (through < best) best = through;
      }
      if (best < du) {
        if (s_.dist.relax_to(u, best)) my_.inc(CId::kUpdates);
        du = s_.dist.load(u);
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
    // dist entry of edge j + lookahead's target (the data-dependent miss).
    const WEdge* edges = s_.graph.edge_data() + g.edge_offset(u);
    for (std::uint32_t j = begin; j < end; ++j) {
      if (lookahead_ != 0 && j + lookahead_ < end)
        prefetch_read(s_.dist.prefetch_addr(edges[j + lookahead_].dst));
      const WEdge& e = edges[j];
      my_.inc(CId::kRelaxations);
      const Distance nd = saturating_add(du, e.w);
      if (s_.dist.relax_to(e.dst, nd)) {
        my_.inc(CId::kUpdates);
        // Leaf pruning (§4.4): a shortest-path-tree leaf can never improve
        // another vertex; update its distance but never schedule it.
        if (s_.config.leaf_pruning && g.is_leaf(e.dst)) continue;
        push_to_buckets(e.dst, static_cast<std::uint64_t>(nd) / s_.delta);
      }
    }
    if (lookahead_ != 0 && end - begin > lookahead_)
      my_.inc(CId::kPrefetchIssued, end - begin - lookahead_);
  }

  // --- work stealing (Algorithm 2 + §4.2 ablation policies) --------------

  /// Attempts to steal chunks with priority at least as good as `next`.
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
      pool_.put(c);  // stolen chunks are recycled by the thief (§4.3)
    }
    return true;
  }

  /// The paper's protocol (Algorithm 2): walk NUMA tiers nearest-first;
  /// within a tier, steal one chunk from every victim whose current
  /// priority level is at least as good as our best local bucket; stop at
  /// the first tier that yields anything.
  int steal_priority_numa(std::uint64_t next, ChunkT** out) {
    int count = 0;
    for (const auto& tier : s_.tiers.tiers(tid_)) {
      for (const int t : tier) {
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
          my_.inc(CId::kSteals);
          count_steal_locality(t);
          out[count++] = c;
          if (count == 64) return count;
        }
      }
      if (count > 0) return count;
    }
    return count;
  }

  /// Steal-locality accounting (exported by bench/fig06_scaling): a steal
  /// is local when thief and victim workers are pinned to the same NUMA
  /// node of the run's topology.
  void count_steal_locality(int victim) {
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

  /// Traditional random-victim stealing (§4.2 ablation): up to
  /// steal_retries+1 random victims, taking any available chunk.
  int steal_random(ChunkT** out) {
    const int p = s_.tiers.num_threads();
    if (p <= 1) return 0;
    for (int attempt = 0; attempt <= s_.config.steal_retries; ++attempt) {
      int t = static_cast<int>(rng_.next_below(static_cast<std::uint64_t>(p - 1)));
      if (t >= tid_) ++t;
      my_.inc(CId::kStealAttempts);
      obs::trace_instant(s_.ctx.trace, tid_, EK::kStealAttempt,
                         static_cast<std::uint64_t>(t));
      ChunkT* c = s_.deques[static_cast<std::size_t>(t)]->steal();
      notify_steal(t, c != nullptr);
      if (c != nullptr) {
        my_.inc(CId::kSteals);
        count_steal_locality(t);
        out[0] = c;
        return 1;
      }
    }
    return 0;
  }

  /// MultiQueue-like two-choice stealing (§4.2 ablation): sample two
  /// victims, steal from the one with the better current priority.
  int steal_two_choice(ChunkT** out) {
    const int p = s_.tiers.num_threads();
    if (p <= 1) return 0;
    for (int attempt = 0; attempt <= s_.config.steal_retries; ++attempt) {
      int a = static_cast<int>(rng_.next_below(static_cast<std::uint64_t>(p - 1)));
      if (a >= tid_) ++a;
      int b = static_cast<int>(rng_.next_below(static_cast<std::uint64_t>(p - 1)));
      if (b >= tid_) ++b;
      const std::uint64_t ca = s_.curr.probe(a);  // acquire (curr_board.hpp)
      const std::uint64_t cb = s_.curr.probe(b);  // acquire (curr_board.hpp)
      const int t = ca <= cb ? a : b;
      my_.inc(CId::kStealAttempts);
      obs::trace_instant(s_.ctx.trace, tid_, EK::kStealAttempt,
                         static_cast<std::uint64_t>(t));
      ChunkT* c = s_.deques[static_cast<std::size_t>(t)]->steal();
      notify_steal(t, c != nullptr);
      if (c != nullptr) {
        my_.inc(CId::kSteals);
        count_steal_locality(t);
        out[0] = c;
        return 1;
      }
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
  bool terminate() {
    const int p = s_.tiers.num_threads();
    bool sweep = true;  // sweep on entry; afterwards only when work is seen
    int rounds = 0;     // failed rounds that saw a peer working, since the
                        // last park
    obs::trace_begin(s_.ctx.trace, tid_, EK::kTerminationScan);
    for (;;) {
      // Cancellation point (with deadline check — idle scans are exactly
      // where an overdue run spins): leave as if terminated; peers observe
      // us idle and exit through their own polls or a genuine verdict.
      if (s_.ctx.poll_cancel()) {
        publish_curr(kInfPriority);
        obs::trace_end(s_.ctx.trace, tid_, EK::kTerminationScan, 1);
        return true;
      }
      if (sweep) {
        // acq_rel: the epoch bump orders this sweep's steal between the
        // double-scan's acquire reads (below), invalidating any scan that
        // it raced with.
        s_.steal_epoch.fetch_add(1, std::memory_order_acq_rel);
        publish_curr(kStealingPriority);
        if (try_steal_and_process(kInfPriority)) {
          obs::trace_end(s_.ctx.trace, tid_, EK::kTerminationScan, 0);
          return false;
        }
        publish_curr(kInfPriority);
      }

      my_.inc(CId::kTerminationScans);
      Timer idle_timer;
      // Acquire epoch reads bracket the scan: any sweep-steal that bumps
      // the epoch between them invalidates this scan (§4.3 double-scan).
      const std::uint64_t epoch_before =
          s_.steal_epoch.load(std::memory_order_acquire);
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

      if (all_idle && epoch_before == epoch_after) {
        // Chaos: a spurious wakeup distrusts the double-scan verdict and
        // forces one more sweep; termination must still be reached once the
        // injected doubt stops firing.
        if (WASP_CHAOS_FAIL(chaos::Point::kSpuriousWakeup)) {
          sweep = true;
          record_idle(idle_timer.nanoseconds());
          continue;
        }
        record_idle(idle_timer.nanoseconds());
        obs::trace_end(s_.ctx.trace, tid_, EK::kTerminationScan, 1);
        if (s_.ctx.observer != nullptr) s_.ctx.observer->on_termination(tid_);
        return true;
      }
      // Re-sweep only when a thread holds real-priority work; if only
      // thieves remain, stay idle and let the epoch settle. Park once the
      // spin budget is spent while a peer still works: sweeping on would
      // only load the memory system that peer needs. Our own slot is never
      // below kStealingPriority here, so a one-thread team never parks.
      sweep = someone_working;
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
  // and re-scans; a waker publishes (a deque push, or its final
  // kInfPriority on the way out), fences and reads the park words. At
  // least one side sees the other, so a parker is either woken or stays
  // awake. docs/CONCURRENCY.md has the termination argument.

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
      // Chaos: a spurious wake-up returns before any peer woke us; the
      // worker resumes its termination rounds as after a real wake.
      if (!WASP_CHAOS_FAIL(chaos::Point::kSpuriousWakeup)) {
        // Relaxed: a woken worker re-synchronizes through its next sweep
        // and scan; the wait only has to notice the word change.
        word.wait(kParked, std::memory_order_relaxed);
      }
    }
    // Relaxed: owner-only reset (a waker's claim CAS writes the same value).
    word.store(kAwake, std::memory_order_relaxed);
  }

  /// The parker's re-scan, behind its fence. Stays awake when any peer's
  /// deque holds work (a steal can take it) or when every peer is idle: they
  /// may all be parked, so nobody would be left to wake this worker, and the
  /// verdict is its own to reach.
  [[nodiscard]] bool must_stay_awake() const {
    const int p = s_.tiers.num_threads();
    bool all_idle = true;
    for (int t = 0; t < p; ++t) {
      if (t == tid_) continue;
      if (!s_.deques[static_cast<std::size_t>(t)]->empty_estimate())
        return true;
      if (s_.curr.scan(t) != kInfPriority) all_idle = false;
    }
    return all_idle;
  }

  /// Wake-on-push: once this owner's deque holds a stealable surplus, give
  /// one parked peer the chance to take it. A one-thread team has no peer.
  void wake_for_surplus() {
    if (s_.tiers.num_threads() > 1 && deque_->size_estimate() >= kWakeSurplus)
      wake_parked(1);
  }

  /// Claims and notifies up to `n` parked peers, nearest tid first.
  void wake_parked(int n) {
    const int p = s_.tiers.num_threads();
    if (p <= 1) return;
    // seq_cst: pairs with the parker's fence in park(). Everything this
    // worker published before it (deque pushes, its last curr level) is
    // visible to a parker whose fence comes later in S; otherwise these
    // reads see that parker's announce.
    verify::thread_fence(std::memory_order_seq_cst);
    for (int i = 1; i < p && n > 0; ++i) {
      auto& word = s_.park[static_cast<std::size_t>((tid_ + i) % p)].value;
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
  BasicChunkPool<ChunkT> pool_;
  obs::MetricsShard& my_;
  Xoshiro256 rng_;
  ChaseLevDeque<ChunkT*>* deque_;
  ChunkT* buffer_ = nullptr;
  BucketList<ChunkT> buckets_;
  std::uint64_t curr_cache_ = kInfPriority;
  std::uint64_t progress_ = 0;
  const std::uint32_t lookahead_;  ///< SsspOptions::prefetch_lookahead
};

}  // namespace

template <typename ChunkT>
SsspResult wasp_sssp_impl(const Graph& g, VertexId source, Weight delta,
                          const WaspConfig& config, RunContext& ctx) {
  const int p = ctx.team.size();

  std::shared_ptr<const NumaTopology> topo = config.topology;
  if (!topo) topo = std::make_shared<NumaTopology>(NumaTopology::detect());
  std::vector<int> cpu_of(static_cast<std::size_t>(p));
  for (int t = 0; t < p; ++t)
    cpu_of[static_cast<std::size_t>(t)] = ctx.team.cpu_of(t) % topo->num_cpus();

  AtomicDistances& dist = ctx.distances(g.num_vertices());
  dist.store(source, 0);

  WaspShared<ChunkT> shared(g, dist, delta, config, ctx, p, *topo, cpu_of);
  // Pre-publish worker 0 as busy at level 0 so no other worker can pass the
  // termination check before the source is seeded (same release site as
  // every in-run publication — the board owns the ordering).
  shared.curr.publish(0, 0);

  chaos::Engine* chaos = config.chaos != nullptr ? config.chaos : ctx.chaos;
  Timer timer;
  ctx.team.run([&](int tid) {
    verify::ScopedSchedule schedule_guard(tid);
    chaos::ScopedInstall chaos_guard(chaos, tid);
    WaspWorker<ChunkT> worker(shared, tid);
    if (tid == 0) worker.seed(source);
    worker.run();
  });

  SsspResult result;
  finalize_result(ctx, timer.seconds(), result);
  result.dist = dist.snapshot();
  return result;
}

template <typename ChunkT>
SsspResult wasp_sssp_seeded_impl(const Graph& g,
                                 std::span<const VertexId> seeds, Weight delta,
                                 const WaspConfig& config, RunContext& ctx) {
  const int p = ctx.team.size();

  std::shared_ptr<const NumaTopology> topo = config.topology;
  if (!topo) topo = std::make_shared<NumaTopology>(NumaTopology::detect());
  std::vector<int> cpu_of(static_cast<std::size_t>(p));
  for (int t = 0; t < p; ++t)
    cpu_of[static_cast<std::size_t>(t)] = ctx.team.cpu_of(t) % topo->num_cpus();

  // Warm start: the caller pre-loaded ctx.dist; distances() with a matching
  // size hands the same array back untouched (no epoch bump, no seeding).
  AtomicDistances& dist = ctx.distances(g.num_vertices());

  // Per-worker minimum seed level, computed up front so every seeded worker
  // can be pre-published busy before the team launches — the multi-source
  // analogue of the classic path's `curr.publish(0, 0)`: no worker may pass
  // the termination scan before the seeds land.
  std::vector<std::uint64_t> min_level(static_cast<std::size_t>(p),
                                       kInfPriority);
  bool any_seed = false;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const Distance d = dist.load(seeds[i]);
    if (d == kInfDist) continue;
    auto& slot = min_level[i % static_cast<std::size_t>(p)];
    slot = std::min(slot, static_cast<std::uint64_t>(d) / delta);
    any_seed = true;
  }
  if (!any_seed) {
    // Nothing to repair: report the warm bounds as-is, zero parallel work.
    SsspResult result;
    finalize_result(ctx, 0.0, result);
    result.dist = dist.snapshot();
    return result;
  }

  WaspShared<ChunkT> shared(g, dist, delta, config, ctx, p, *topo, cpu_of);
  for (int t = 0; t < p; ++t) {
    if (min_level[static_cast<std::size_t>(t)] != kInfPriority)
      shared.curr.publish(t, min_level[static_cast<std::size_t>(t)]);
  }

  chaos::Engine* chaos = config.chaos != nullptr ? config.chaos : ctx.chaos;
  Timer timer;
  ctx.team.run([&](int tid) {
    verify::ScopedSchedule schedule_guard(tid);
    chaos::ScopedInstall chaos_guard(chaos, tid);
    WaspWorker<ChunkT> worker(shared, tid);
    worker.seed_warm(seeds);
    worker.run();
  });

  SsspResult result;
  finalize_result(ctx, timer.seconds(), result);
  result.dist = dist.snapshot();
  return result;
}

SsspResult wasp_sssp(const Graph& g, VertexId source, Weight delta,
                     const WaspConfig& config, RunContext& ctx) {
  // The chunk capacity is a compile-time property (paper §4.3: "chosen at
  // compilation time"); dispatch to the instantiations we ship.
  switch (config.chunk_capacity) {
    case 16:
      return wasp_sssp_impl<BasicChunk<16>>(g, source, delta, config, ctx);
    case 32:
      return wasp_sssp_impl<BasicChunk<32>>(g, source, delta, config, ctx);
    case 64:
      return wasp_sssp_impl<BasicChunk<64>>(g, source, delta, config, ctx);
    case 128:
      return wasp_sssp_impl<BasicChunk<128>>(g, source, delta, config, ctx);
    case 256:
      return wasp_sssp_impl<BasicChunk<256>>(g, source, delta, config, ctx);
    default:
      throw InvalidOptionsError(
          "wasp_sssp: chunk_capacity must be one of 16, 32, 64, 128, 256");
  }
}

SsspResult wasp_sssp_seeded(const Graph& g, std::span<const VertexId> seeds,
                            Weight delta, const WaspConfig& config,
                            RunContext& ctx) {
  if (ctx.dist == nullptr || ctx.dist->size() != g.num_vertices())
    throw InvalidOptionsError(
        "wasp_sssp_seeded: ctx.dist must be pre-loaded with warm bounds "
        "sized to the graph");
  switch (config.chunk_capacity) {
    case 16:
      return wasp_sssp_seeded_impl<BasicChunk<16>>(g, seeds, delta, config,
                                                   ctx);
    case 32:
      return wasp_sssp_seeded_impl<BasicChunk<32>>(g, seeds, delta, config,
                                                   ctx);
    case 64:
      return wasp_sssp_seeded_impl<BasicChunk<64>>(g, seeds, delta, config,
                                                   ctx);
    case 128:
      return wasp_sssp_seeded_impl<BasicChunk<128>>(g, seeds, delta, config,
                                                    ctx);
    case 256:
      return wasp_sssp_seeded_impl<BasicChunk<256>>(g, seeds, delta, config,
                                                    ctx);
    default:
      throw InvalidOptionsError(
          "wasp_sssp_seeded: chunk_capacity must be one of 16, 32, 64, 128, "
          "256");
  }
}

}  // namespace wasp
