// Shared machinery for every SSSP implementation: the atomic tentative-
// distance array, the CAS edge-relaxation primitive (paper Algorithm 1,
// relax()), the run-lifecycle context every parallel algorithm executes
// under (RunContext: team + metrics + optional trace/observer/chaos), and
// the option/result types of the unified front-end in sssp.hpp.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/trace.hpp"
#include "support/cancel.hpp"
#include "support/chaos.hpp"
#include "support/numa.hpp"
#include "support/types.hpp"
#include "verify/checked_atomic.hpp"

namespace wasp {

class ThreadTeam;

/// Tentative-distance array with atomic CAS updates, epoch-versioned so a
/// pooled array re-initializes in O(1) between solves instead of O(V).
///
/// Each entry packs {epoch tag : high 32, distance : low 32} into one
/// 64-bit atomic word. An entry whose tag differs from the array's current
/// epoch is logically kInfDist — so new_epoch() invalidates every entry
/// without touching memory. The tag is 32 bits wide; when it wraps (once
/// per 2^32 solves) a full O(V) sweep re-stamps the array, because entries
/// stale since tag-space-ago would otherwise read as live again.
///
/// The epoch is mutated only between parallel phases (by the dispatching
/// thread, ordered against workers by ThreadTeam fork/join), so workers
/// read a stable plain value and all same-run CAS traffic carries one tag:
/// the packed compare-exchange is exactly the old 32-bit distance CAS with
/// a constant prefix.
class AtomicDistances {
 public:
  explicit AtomicDistances(std::size_t n)
      : n_(n), dist_(std::make_unique<verify::atomic<std::uint64_t>[]>(n)) {
    sweep();
  }

  [[nodiscard]] std::size_t size() const { return n_; }

  /// Relaxed: distance reads are admissibly stale — every algorithm
  /// re-validates (stale-skip check or CAS), and cross-thread visibility of
  /// the *final* values rides the scheduler's own edges (barriers, steals).
  [[nodiscard]] Distance load(VertexId v) const {
    return decode(dist_[v].load(std::memory_order_relaxed));
  }

  /// Relaxed: pre-run seeding; the team launch publishes it.
  void store(VertexId v, Distance d) {
    dist_[v].store(pack(d), std::memory_order_relaxed);
  }

  /// The relax() primitive of Algorithm 1 (lines 1-8): lowers dist[v] to
  /// `candidate` with a CAS loop. Returns true when this call achieved a
  /// strict improvement (the caller then reschedules v). Success publishes
  /// with release semantics so a scheduler flag written afterwards carries
  /// visibility of the new distance.
  /// Candidates must come from saturating_add (see types.hpp): kInfDist can
  /// never win the strict-decrease test, so wrapped sums cannot corrupt the
  /// array. A stale-epoch entry decodes to kInfDist and the CAS compares
  /// the full packed word, so overwriting it is exactly the inf-entry case.
  bool relax_to(VertexId v, Distance candidate) {
    std::uint64_t old = dist_[v].load(std::memory_order_relaxed);
    while (candidate < decode(old)) {
      WASP_CHAOS_YIELD(chaos::Point::kYieldBeforeCas);
      // Release on success: an acq_rel frontier-flag exchange that reads
      // our flag write also sees this improved distance (the round
      // baselines' dedup pairing, PendingFlags in rounds.hpp). Relaxed on
      // failure: the loop re-reads `old` and the monotone-min argument
      // needs no ordering.
      if (dist_[v].compare_exchange_weak(old, pack(candidate),
                                         std::memory_order_release,
                                         std::memory_order_relaxed)) {
        return true;
      }
      WASP_CHAOS_YIELD(chaos::Point::kYieldAfterCas);
      // `old` reloaded by the failed CAS; loop re-checks the improvement.
    }
    return false;
  }

  /// Copies distances out (result snapshot; call after the parallel phase).
  /// Relaxed: called after the team joins, which orders all writes.
  [[nodiscard]] std::vector<Distance> snapshot() const {
    std::vector<Distance> out(n_);
    for (std::size_t i = 0; i < n_; ++i)
      out[i] = decode(dist_[i].load(std::memory_order_relaxed));
    return out;
  }

  /// O(1) logical reset of every entry to kInfDist. Call between parallel
  /// phases only. Returns true when the tag wrapped and an O(V) sweep ran.
  bool new_epoch() {
    ++epoch_;
    if (epoch_ != 0) return false;
    sweep();
    return true;
  }

  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }

  /// Test hook: jumps the tag (e.g. to 0xFFFFFFFF to force a wrap on the
  /// next new_epoch) and re-stamps the array as all-kInfDist under it.
  void debug_set_epoch(std::uint32_t e) {
    epoch_ = e;
    sweep();
  }

  /// Address of v's packed entry, for software prefetch ahead of load()/
  /// relax_to() (prefetch.hpp).
  [[nodiscard]] const void* prefetch_addr(VertexId v) const {
    return &dist_[v];
  }

 private:
  [[nodiscard]] std::uint64_t pack(Distance d) const {
    return (static_cast<std::uint64_t>(epoch_) << 32) | d;
  }
  [[nodiscard]] Distance decode(std::uint64_t word) const {
    return (word >> 32) == epoch_ ? static_cast<Distance>(word) : kInfDist;
  }
  // Relaxed: sweep runs between parallel phases (no concurrent access).
  void sweep() {
    for (std::size_t i = 0; i < n_; ++i)
      dist_[i].store(pack(kInfDist), std::memory_order_relaxed);
  }

  std::size_t n_;
  // Starts at 1, never 0: a freshly value-initialized atomic entry holds the
  // all-zero word, and under epoch 0 that word would decode as a LIVE
  // {tag 0, distance 0} — a ghost zero that beats every candidate and
  // silently defeats relax_to(). A reader racing the constructing thread's
  // sweep (partitioned shards are built by fragment leaders inside the
  // parallel phase; the stale-read verify model exercises exactly this) must
  // instead decode the zero word as a tag mismatch, i.e. kInfDist, which the
  // monotone CAS handles harmlessly.
  std::uint32_t epoch_ = 1;
  std::unique_ptr<verify::atomic<std::uint64_t>[]> dist_;
};

/// Reusable tentative-distance storage for repeat queries. Not thread-safe:
/// acquire() runs between parallel phases (the front-end calls it before
/// handing workers the array). Solver owns one so repeated solve() calls
/// skip the O(V) fill.
class DistancePool {
 public:
  /// Returns an array of `n` logically-kInfDist entries. The fast path is
  /// an O(1) epoch bump; first use, a size change, and a tag wrap each cost
  /// one O(n) initialization, counted in sweeps().
  AtomicDistances& acquire(std::size_t n) {
    if (dist_ == nullptr || dist_->size() != n) {
      dist_ = std::make_unique<AtomicDistances>(n);
      ++sweeps_;
    } else if (dist_->new_epoch()) {
      ++sweeps_;
    }
    return *dist_;
  }

  /// O(n) initializations performed so far (the epoch_sweeps counter reports
  /// the per-run delta).
  [[nodiscard]] std::uint64_t sweeps() const { return sweeps_; }

  /// The held array, null before the first acquire (test/debug access).
  [[nodiscard]] AtomicDistances* current() { return dist_.get(); }

 private:
  std::unique_ptr<AtomicDistances> dist_;
  std::uint64_t sweeps_ = 0;
};

/// Per-graph state of partitioned Wasp — the fragments and one distance
/// shard per fragment — kept across solves so only the first partitioned
/// solve of a graph pays the O(n + m) build. Solver owns one and hands it to
/// the engine through RunContext, as it does its DistancePool; the engine
/// reuses the entry when every key field matches and otherwise replaces it.
/// Not thread-safe: like DistancePool, it is touched between parallel phases
/// only (the shards are filled by fragment leaders inside a team run, which
/// the team join orders before the entry is stored).
struct PartitionCache {
  /// What a partition and its placement depend on.
  struct Key {
    std::uint64_t stamp = 0;  ///< Graph::stamp() of the partitioned graph
    int fragments = 0;        ///< fragment count requested of build()
    int team_size = 0;
    /// Held, not only compared: while the entry lives, no other topology
    /// can be allocated at this address and pass for it.
    std::shared_ptr<const NumaTopology> topology;

    friend bool operator==(const Key&, const Key&) = default;
  };
  struct Entry {
    Key key;
    GraphPartition partition;
    /// shards[f] holds fragment f's distances over its local indices.
    std::vector<std::unique_ptr<AtomicDistances>> shards;
  };

  /// The cached entry when its key equals `key`, else null.
  [[nodiscard]] Entry* find(const Key& key) {
    return entry != nullptr && entry->key == key ? entry.get() : nullptr;
  }

  /// Logically resets every cached shard to kInfDist with an O(1) epoch
  /// bump each. Returns true when the tags wrapped and the shards were
  /// swept; they wrap in lockstep, so that is one O(n) sweep of the set.
  bool new_epoch() {
    bool swept = false;
    if (entry != nullptr) {
      for (auto& shard : entry->shards) swept = shard->new_epoch() || swept;
    }
    return swept;
  }

  std::unique_ptr<Entry> entry;
};

/// Which algorithm the front-end dispatches to.
enum class Algorithm {
  kDijkstra,       ///< sequential reference (binary/d-ary heap)
  kBellmanFord,    ///< round-synchronous frontier Bellman-Ford
  kDeltaStepping,  ///< GAP-style synchronous delta-stepping (+bucket fusion)
  kJulienne,       ///< GBBS-style centralized bucketing delta-stepping
  kDeltaStar,      ///< Dong et al. Δ*-stepping (threshold = min + Δ)
  kRhoStepping,    ///< Dong et al. ρ-stepping (threshold = ρ-th smallest)
  kRadiusStepping, ///< Blelloch et al. radius-stepping (extension baseline)
  kMqDijkstra,     ///< parallel Dijkstra over the MultiQueue
  kSmqDijkstra,    ///< parallel Dijkstra over the Stealing MultiQueue (ext.)
  kObim,           ///< Galois-style asynchronous delta-stepping (OBIM)
  kWasp,           ///< the paper's contribution
};

/// The Algorithm <-> name mapping lives in one table (common.cpp): the CLI,
/// the bench labels, and the error messages all read from it.
/// Canonical name of `a` ("wasp", "gap", "gbbs", ...).
const char* to_string(Algorithm a);
/// Back-compat alias for to_string().
inline const char* algorithm_name(Algorithm a) { return to_string(a); }
/// Parses a canonical name or its documented alias ("bf"/"bellman-ford",
/// "gap"/"delta", ...); throws std::invalid_argument listing the accepted
/// names otherwise.
Algorithm parse_algorithm(std::string_view name);
/// "dijkstra|bf|gap|..." — every canonical name, for CLI help text.
std::string algorithm_list();

/// Victim-selection policy of Wasp's work-stealing (the §4.2 ablation).
enum class StealPolicy {
  kPriorityNuma,  ///< the paper's protocol (Algorithm 2)
  kRandom,        ///< traditional random victim, `steal_retries` attempts
  kTwoChoice,     ///< MultiQueue-like: two random victims, steal the better
};

/// Wasp-specific knobs (paper §4.3-4.4 defaults).
struct WaspConfig {
  bool leaf_pruning = true;
  bool bidirectional_relaxation = true;
  bool neighborhood_decomposition = true;
  std::uint32_t theta = 1u << 20;  ///< neighborhood-decomposition threshold
  StealPolicy steal_policy = StealPolicy::kPriorityNuma;
  int steal_retries = 8;  ///< victim attempts for kRandom / kTwoChoice
  /// Chunk capacity in vertices; a compile-time property of the shipped
  /// instantiations (16, 32, 64, 128, 256). The paper uses 64 and reports
  /// insensitivity to the choice (§5.1).
  std::uint32_t chunk_capacity = 64;
  /// Synthetic NUMA topology override for tests/benches; empty = detect().
  /// Solver fills this in once at construction so repeated solve() calls
  /// skip re-detection.
  std::shared_ptr<const NumaTopology> topology;
  /// Partitioned execution mode (docs/NUMA.md): split the CSR into
  /// per-NUMA-node fragments, run the deque protocol inside each fragment,
  /// and route boundary relaxations through batched remote queues instead
  /// of CAS traffic on remote cache lines.
  struct Partition {
    bool enabled = false;
    /// Fragment count; 0 = one per NUMA node of `topology` (clamped to the
    /// thread count by the driver so every fragment has a worker).
    int num_fragments = 0;
    /// Records buffered per destination before a batch is published, in
    /// [1, 256] (256 is RemoteBatch::kCapacity). Smaller = lower boundary
    /// latency, larger = fewer cross-node lines per record.
    std::uint32_t flush_threshold = 64;
  };
  Partition partition;

  /// Fragments a cold Wasp run on `team_size` workers splits the graph
  /// into: 1 unless partition.enabled, else partition.num_fragments (0 = one
  /// per NUMA node of `topology`, detected when empty) clamped to
  /// [1, team_size] so every fragment has a worker. A run that resolves to
  /// one fragment is a flat run on the pooled distance array.
  [[nodiscard]] int fragments(int team_size) const;
};

/// Dong et al. stepping knobs (Δ*-, ρ-, radius-stepping).
struct SteppingOptions {
  std::uint64_t rho = 1u << 14;    ///< ρ for ρ-stepping
  bool direction_optimize = true;  ///< pull step on huge frontiers (also
                                   ///< honored by Julienne)
  std::uint32_t radius_k = 16;     ///< k for the r_k(v) preprocessing
};

/// GAP delta-stepping knobs.
struct GapOptions {
  bool bucket_fusion = true;
};

/// MultiQueue knobs.
struct MqOptions {
  int c = 2;           ///< queues per thread
  int stickiness = 8;  ///< operations before re-picking queues
  int buffer = 16;     ///< per-thread insertion buffer
};

/// Stealing-MultiQueue knob.
struct SmqOptions {
  int steal_batch = 8;
};

/// Galois/OBIM knob.
struct ObimOptions {
  std::uint32_t chunk_size = 128;
};

/// Options for run_sssp() / Solver. Per-algorithm knobs are nested; the
/// top level keeps only what every algorithm shares (algo, threads, Δ,
/// seed) and the run-lifecycle hooks.
struct SsspOptions {
  Algorithm algo = Algorithm::kWasp;
  int threads = 1;
  Weight delta = 1;  ///< Δ (bucket width) for all Δ-based algorithms

  WaspConfig wasp;
  SteppingOptions stepping;
  GapOptions gap;
  MqOptions mq;
  SmqOptions smq;
  ObimOptions obim;

  std::uint64_t seed = 0x5EEDULL;

  /// Software-prefetch lookahead, in edges, for the relaxation loops of
  /// Wasp, the round baselines, and the MultiQueue/SMQ solvers: while
  /// relaxing edge j the worker prefetches the distance entry of edge j+k's
  /// target (and, in chunk drains, the next vertex's adjacency offsets). 0
  /// disables. Purely a performance knob — results are bit-identical at any
  /// setting. See docs/PERFORMANCE.md for tuning.
  std::uint32_t prefetch_lookahead = 4;

  /// Fault-injection engine threaded to the workers of chaos-aware
  /// algorithms (Wasp, SMQ-Dijkstra, the round baselines). Null = no
  /// injection.
  chaos::Engine* chaos = nullptr;
  /// Cooperative cancellation/deadline token (null = not cancellable).
  /// Polled at cheap boundaries by every parallel algorithm; a fired token
  /// makes the front-end discard the partial run (epoch bump) and throw
  /// SolveCancelledError. Must outlive the run. The sequential Dijkstra
  /// reference checks it only at entry — see docs/ROBUSTNESS.md for the
  /// per-algorithm granularity.
  CancelToken* cancel = nullptr;
  /// Run-lifecycle hooks (null = none): live callbacks and the event-ring
  /// recorder. Both must outlive the run; the observer must be thread-safe.
  obs::RunObserver* observer = nullptr;
  obs::TraceRecorder* trace = nullptr;
  /// Re-validate the CSR arrays (O(n + m)) before dispatch; the front-end
  /// always performs the O(1) source/threads/shape checks.
  bool paranoid_checks = false;

  /// True when a solve with these options on `team_size` workers runs on
  /// the pooled flat distance array (RunContext::dist). The sequential
  /// Dijkstra reference keeps a plain vector and a Wasp run with more than
  /// one fragment keeps fragment shards; neither touches the pool.
  [[nodiscard]] bool uses_distance_pool(int team_size) const {
    return algo != Algorithm::kDijkstra &&
           !(algo == Algorithm::kWasp && wasp.fragments(team_size) > 1);
  }

  /// Rejects out-of-range knobs with InvalidOptionsError (delta == 0,
  /// threads < 1, mq.c < 1, wasp.chunk_capacity outside the shipped
  /// {16,32,64,128,256} instantiations, negative smq.steal_batch, ...).
  /// Called once at the run_sssp/Solver front door; the algorithms assume
  /// validated knobs.
  void validate() const;
};

/// Distances plus the run's metrics (wall time in metrics.seconds, work
/// counts via metrics.counter(CounterId::...)).
struct SsspResult {
  std::vector<Distance> dist;
  obs::MetricsSnapshot metrics;
};

/// Everything a parallel SSSP implementation runs under. The front-end
/// (run_sssp / Solver::solve) assembles one per run; the algorithm resets
/// ctx.metrics at entry and reports exclusively through it.
struct RunContext {
  ThreadTeam& team;
  obs::MetricsRegistry& metrics;  ///< must have >= team.size() shards
  obs::TraceRecorder* trace = nullptr;
  obs::RunObserver* observer = nullptr;
  chaos::Engine* chaos = nullptr;
  /// Pool the front-end acquires ctx.dist from (Solver's owned pool, so
  /// repeat solves skip the O(V) fill).
  DistancePool* pool = nullptr;
  /// This run's tentative-distance array, acquired (all-kInfDist) by
  /// dispatch_sssp; the parallel algorithms use it instead of allocating.
  /// A Wasp run with more than one fragment keeps its distances in fragment
  /// shards and leaves it null.
  AtomicDistances* dist = nullptr;
  /// Where partitioned Wasp keeps its fragments and shards between solves
  /// (null = build them per call; Solver points this at its owned cache).
  PartitionCache* partitions = nullptr;
  /// options.prefetch_lookahead, copied here by dispatch_sssp.
  std::uint32_t prefetch_lookahead = 0;
  /// options.cancel, copied here by dispatch_sssp (null = not cancellable).
  CancelToken* cancel = nullptr;

  /// Hot-path cancellation poll (relaxed flag load; see cancel.hpp). Safe
  /// from any worker.
  [[nodiscard]] bool stop_requested() const {
    return cancel != nullptr && cancel->cancel_requested();
  }

  /// Low-frequency poll that also checks the token's deadline (one clock
  /// read). Use at round tops, steal-sweep entries, and termination scans.
  [[nodiscard]] bool poll_cancel() const {
    return cancel != nullptr && cancel->poll();
  }

  /// The run's distance array: what dispatch_sssp acquired, or a repair's
  /// pre-loaded bounds.
  [[nodiscard]] AtomicDistances& distances() const { return *dist; }
};

/// Shared run epilogue: records the team gauges and the elapsed time into
/// the registry and snapshots it into `result.metrics`.
void finalize_result(RunContext& ctx, double seconds, SsspResult& result);

}  // namespace wasp
