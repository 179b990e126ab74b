// Shared machinery for every SSSP implementation: the atomic tentative-
// distance array, the CAS edge-relaxation primitive (paper Algorithm 1,
// relax()), the run-lifecycle context every parallel algorithm executes
// under (RunContext: team + metrics + optional trace/observer), and
// the option/result types of the Solver front-end (solver.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/trace.hpp"
#include "support/cancel.hpp"
#include "support/numa.hpp"
#include "support/types.hpp"
#include "verify/checked_atomic.hpp"

namespace wasp {

class ThreadTeam;

/// Tentative-distance array with atomic CAS updates: a view, through
/// atomic_ref, over a plain buffer of one 32-bit word per vertex (kInfDist
/// while unreached). Once the team joins, the buffer is the run's answer,
/// with no copy out.
///
/// The relax loop reads this array at random, so its size is the engine's
/// working set: at 4 bytes per vertex the 409,600-vertex road grid of
/// perfbench's road_solve (1.6 MB) fits a 2 MB L2 (docs/PERFORMANCE.md).
/// The buffer's owner initializes it between parallel phases (a fill, or a
/// repair's copy or patch); the next team launch publishes that.
class AtomicDistances {
 public:
  AtomicDistances() = default;
  /// Views `buffer`, which must outlive every access through the view.
  explicit AtomicDistances(std::span<Distance> buffer)
      : dist_(buffer.data()), n_(buffer.size()) {}

  [[nodiscard]] std::size_t size() const { return n_; }

  /// Relaxed: distance reads are admissibly stale — every algorithm
  /// re-validates (stale-skip check or CAS), and cross-thread visibility of
  /// the *final* values rides the scheduler's own edges (barriers, steals).
  [[nodiscard]] Distance load(VertexId v) const {
    return entry(v).load(std::memory_order_relaxed);
  }

  /// Relaxed: pre-run seeding; the team launch publishes it.
  void store(VertexId v, Distance d) const {
    entry(v).store(d, std::memory_order_relaxed);
  }

  /// The relax() primitive of Algorithm 1 (lines 1-8): lowers dist[v] to
  /// `candidate` with a CAS loop. Returns true when this call achieved a
  /// strict improvement (the caller then reschedules v). Success publishes
  /// with release semantics so a scheduler flag written afterwards carries
  /// visibility of the new distance.
  /// Candidates must come from saturating_add (see types.hpp): kInfDist can
  /// never win the strict-decrease test, so wrapped sums cannot corrupt the
  /// array.
  bool relax_to(VertexId v, Distance candidate) const {
    const verify::atomic_ref<Distance> cell = entry(v);
    Distance old = cell.load(std::memory_order_relaxed);
    while (candidate < old) {
      // Release on success: an acq_rel frontier-flag exchange that reads
      // our flag write also sees this improved distance (the round
      // baselines' dedup pairing, PendingFlags in rounds.hpp). Relaxed on
      // failure: the loop re-reads `old` and the monotone-min argument
      // needs no ordering.
      if (cell.compare_exchange_weak(old, candidate,
                                     std::memory_order_release,
                                     std::memory_order_relaxed)) {
        return true;
      }
      // `old` reloaded by the failed CAS; loop re-checks the improvement.
    }
    return false;
  }

  /// Address of v's entry, for software prefetch ahead of load()/
  /// relax_to() (prefetch.hpp).
  [[nodiscard]] const void* prefetch_addr(VertexId v) const {
    return dist_ + v;
  }

 private:
  [[nodiscard]] verify::atomic_ref<Distance> entry(VertexId v) const {
    return verify::atomic_ref<Distance>(dist_[v]);
  }
  // The array is the relax loop's working set: one lock-free 32-bit word
  // per vertex that a plain vector's alignment already suits.
  static_assert(verify::atomic_ref<Distance>::is_always_lock_free);
  static_assert(verify::atomic_ref<Distance>::required_alignment ==
                alignof(Distance));

  Distance* dist_ = nullptr;
  std::size_t n_ = 0;
};

/// Per-graph state of partitioned Wasp — the fragments and one distance
/// shard per fragment — kept across solves so only the first partitioned
/// solve of a graph pays the O(n + m) build. Solver owns one and hands it to
/// the engine through RunContext; the engine reuses the entry when every
/// key field matches and otherwise replaces it. Not thread-safe: it is
/// touched between parallel phases only (the shards are built by fragment
/// leaders inside a team run, which the team join orders before the entry
/// is stored).
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
    std::vector<std::vector<Distance>> shards;
  };

  /// The cached entry when its key equals `key`, else null.
  [[nodiscard]] Entry* find(const Key& key) {
    return entry != nullptr && entry->key == key ? entry.get() : nullptr;
  }

  std::unique_ptr<Entry> entry;
};

/// Which algorithm the front-end dispatches to. The values are fixed:
/// parametrized test IDs print an Algorithm as its bytes, so removing one
/// leaves a gap rather than renumbering the rest.
enum class Algorithm {
  kDijkstra = 0,       ///< sequential reference (binary/d-ary heap)
  kBellmanFord = 1,    ///< round-synchronous frontier Bellman-Ford
  kDeltaStepping = 2,  ///< GAP-style synchronous Δ-stepping (+bucket fusion)
  kJulienne = 3,       ///< GBBS-style centralized bucketing delta-stepping
  kDeltaStar = 4,      ///< Dong et al. Δ*-stepping (threshold = min + Δ)
  kRhoStepping = 5,    ///< Dong et al. ρ-stepping (threshold = ρ-th smallest)
  kMqDijkstra = 7,     ///< parallel Dijkstra over the MultiQueue
  kObim = 9,           ///< Galois-style asynchronous delta-stepping (OBIM)
  kWasp = 10,          ///< the paper's contribution
};

/// The Algorithm <-> name mapping lives in one table (common.cpp): the CLI,
/// the bench labels, and the error messages all read from it.
/// Canonical name of `a` ("wasp", "gap", "gbbs", ...).
const char* to_string(Algorithm a);
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
  /// one fragment is a flat run on the Solver's distance buffer.
  [[nodiscard]] int fragments(int team_size) const;
};

/// Dong et al. stepping knob (ρ-stepping).
struct SteppingOptions {
  std::uint64_t rho = 1u << 14;  ///< ρ for ρ-stepping
};

/// MultiQueue knobs.
struct MqOptions {
  int c = 2;           ///< queues per thread
  int stickiness = 8;  ///< operations before re-picking queues
  int buffer = 16;     ///< per-thread insertion buffer
};

/// Galois/OBIM knob.
struct ObimOptions {
  std::uint32_t chunk_size = 128;
};

/// Options for Solver. Per-algorithm knobs are nested; the top level keeps
/// only what every algorithm shares (algo, threads, Δ, seed) and the
/// run-lifecycle hooks.
struct SsspOptions {
  Algorithm algo = Algorithm::kWasp;
  int threads = 1;
  Weight delta = 1;  ///< Δ (bucket width) for all Δ-based algorithms

  WaspConfig wasp;
  SteppingOptions stepping;
  MqOptions mq;
  ObimOptions obim;

  std::uint64_t seed = 0x5EEDULL;

  /// Cooperative cancellation/deadline token (null = not cancellable).
  /// Polled at cheap boundaries by every parallel algorithm; a fired token
  /// makes the front-end throw SolveCancelledError, and the next solve's
  /// fill discards the partial run. Must outlive the run. The sequential
  /// Dijkstra reference checks it only at entry — see docs/ROBUSTNESS.md
  /// for the per-algorithm granularity.
  CancelToken* cancel = nullptr;
  /// Run-lifecycle hooks (null = none): live callbacks and the event-ring
  /// recorder. Both must outlive the run; the observer must be thread-safe.
  obs::RunObserver* observer = nullptr;
  obs::TraceRecorder* trace = nullptr;

  /// Rejects out-of-range knobs with InvalidOptionsError (delta == 0,
  /// threads < 1, mq.c < 1, wasp.chunk_capacity outside the shipped
  /// {16,32,64,128,256} instantiations, obim.chunk_size == 0, ...).
  /// Called at the Solver front door; the algorithms assume validated
  /// knobs.
  void validate() const;
};

/// Distances plus the run's metrics (wall time in metrics.seconds, work
/// counts via metrics.counter(CounterId::...)). Solver moves the buffer a
/// flat run relaxed into `dist`; called directly, only Dijkstra and a Wasp
/// run with more than one fragment fill it.
struct SsspResult {
  std::vector<Distance> dist;
  obs::MetricsSnapshot metrics;
};

/// Everything a parallel SSSP implementation runs under. Solver::solve
/// assembles one per run; the algorithm resets ctx.metrics at entry and
/// reports exclusively through it.
struct RunContext {
  ThreadTeam& team;
  obs::MetricsRegistry& metrics;  ///< must have >= team.size() shards
  obs::TraceRecorder* trace = nullptr;
  obs::RunObserver* observer = nullptr;
  /// This run's tentative-distance array: a view over the buffer
  /// Solver::solve filled with kInfDist, or over a repair's bounds. A Wasp
  /// run with more than one fragment uses fragment shards instead.
  AtomicDistances* dist = nullptr;
  /// Where partitioned Wasp keeps its fragments and shards between solves
  /// (null = build them per call; Solver points this at its owned cache).
  PartitionCache* partitions = nullptr;
  /// options.cancel, copied here by Solver::solve (null = not cancellable).
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
};

/// Shared run epilogue: records the team gauges and the elapsed time into
/// the registry and snapshots it into `result.metrics`.
void finalize_result(RunContext& ctx, double seconds, SsspResult& result);

}  // namespace wasp
