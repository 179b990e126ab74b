// MetricsRegistry: the single instrumentation substrate every SSSP
// implementation reports through (replacing the per-algorithm ThreadCounters
// bags). One cache-padded MetricsShard per worker holds named counters,
// gauges, and log2-bucketed histograms; a run ends with snapshot(), which
// every SsspResult carries and from which the bench figures read their
// breakdown columns.
//
// The registry is always compiled (it *is* the product's stats path);
// WASP_OBS gates only the TraceRecorder (trace.hpp). Shard mutators are
// annotated with the WASP_VERIFY plain-access race checker so a verify-build
// harness can prove the sharding discipline: each shard is written by exactly
// one thread, and snapshot() must be ordered after the workers by
// happens-before.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "support/padded.hpp"
#include "verify/checked_atomic.hpp"

namespace wasp::obs {

enum class CounterId : std::uint8_t {
  kRelaxations,        ///< edge relaxations attempted
  kUpdates,            ///< successful distance improvements
  kSteals,             ///< chunks successfully stolen
  kStealAttempts,      ///< steal() calls on victims' deques
  kStaleSkips,         ///< scheduled entries skipped as stale
  kVerticesProcessed,  ///< vertices (or chunk entries) settled/processed
  kRounds,             ///< synchronous steps (0 for async algorithms)
  kBucketAdvances,     ///< Wasp current-bucket advances
  kTerminationScans,   ///< Wasp idle/termination scan iterations
  kChunkAllocs,        ///< chunks taken from per-thread pools
  kBarrierNs,          ///< total barrier wait across threads
  kQueueOpNs,          ///< total locked MultiQueue operation time
  kStealNs,            ///< total time inside victim sweeps
  kIdleNs,             ///< total idle/termination-scan time
  kEpochSweeps,        ///< O(V) distance-array initializations this run
  kPrefetchIssued,     ///< software prefetches issued in relaxation loops
  // --- QueryService accounting (cumulative over the service lifetime; a
  // --- per-run solver registry never touches these) -----------------------
  kQueriesSubmitted,       ///< submit() calls accepted into the queue
  kQueriesServed,          ///< queries completed with fresh distances
  kQueriesServedStale,     ///< queries degraded to a cached same-source result
  kQueriesServedCached,    ///< kQueriesServed answers taken from the cache
  kQueriesCancelled,       ///< queries cancelled by explicit request
  kQueriesDeadlineExpired, ///< queries cancelled/expired by their deadline
  kQueriesShed,            ///< queued queries evicted by admission control
  kQueriesRejected,        ///< submit() calls refused (ServiceOverloadedError)
  kQueriesCoalesced,       ///< submits merged into an queued same-source entry
  kQueriesFailed,          ///< queries exhausted their retry budget
  kQueryRetries,           ///< solve attempts beyond each query's first
  kSolverRebuilds,         ///< quarantined Solvers rebuilt off the hot path
  kWatchdogCancels,        ///< overdue runs cancelled by the service watchdog
  // --- incremental repair (graph/delta.hpp + sssp/incremental.hpp) ---------
  kRepairBatches,      ///< delta batches repaired incrementally (not full)
  kRepairRecycled,     ///< repairs patched into a buffer one publish behind
  kRepairConeVertices, ///< vertices re-priced in the increase cone
  kRepairSeedVertices, ///< warm seeds handed to wasp_sssp_seeded
  kGraphCompactions,   ///< VersionedGraph overlay compactions observed
  kGraphCompactedArcs, ///< arcs those compactions moved or wrote
  // --- partitioned execution (graph/partition.hpp + remote_queue.hpp).
  // --- A remote relaxation is counted once, at the sender, as BOTH
  // --- kRelaxations and kRemoteRelaxations; the receiver's application of
  // --- the record counts only kUpdates on improvement, so
  // --- remote_relaxations / relaxations is a true share in [0, 1]. --------
  kRemoteRelaxations,  ///< relaxations routed through a remote queue
  kRemoteBatches,      ///< remote batches published (flushes)
  kLocalSteals,        ///< successful steals from a same-NUMA-node victim
  kRemoteSteals,       ///< successful steals from a cross-node victim
  kPartitionBuilds,    ///< fragment sets built (0 when a Solver reused its own)
  // --- idle parking in the Wasp worker (sssp/wasp.cpp terminate()) ---
  kWorkerParks,        ///< idle workers that blocked after their re-scan
  kWorkerWakes,        ///< parked peers claimed and notified (push, exit,
                       ///< remote publish or quiescence vote)
};
inline constexpr std::size_t kNumCounters = 42;

enum class GaugeId : std::uint8_t {
  kMaxFrontier,  ///< largest synchronous-round frontier seen
  kTeamJobs,     ///< ThreadTeam jobs launched over the team's lifetime
  kTeamJobNs,    ///< cumulative wall time inside ThreadTeam::run
};
inline constexpr std::size_t kNumGauges = 3;

enum class HistId : std::uint8_t {
  kStealSweepNs,      ///< latency of one Wasp victim sweep
  kIdleScanNs,        ///< latency of one termination-scan iteration
  kRoundFrontier,     ///< frontier size per synchronous round
  kRemoteQueueDepth,  ///< records drained per remote-queue grab
};
inline constexpr std::size_t kNumHistograms = 4;
inline constexpr std::size_t kHistBuckets = 64;

const char* counter_name(CounterId id);
const char* gauge_name(GaugeId id);
const char* histogram_name(HistId id);

/// log2 bucketing: value 0 -> bucket 0, otherwise floor(log2(v)) + 1
/// (bucket b covers [2^(b-1), 2^b)), saturating at kHistBuckets - 1.
constexpr std::size_t hist_bucket(std::uint64_t v) {
  std::size_t b = 0;
  while (v != 0 && b + 1 < kHistBuckets) {
    ++b;
    v >>= 1;
  }
  return b;
}

/// Smallest value that lands in `bucket` (inclusive lower bound).
constexpr std::uint64_t hist_bucket_floor(std::size_t bucket) {
  return bucket == 0 ? 0 : std::uint64_t{1} << (bucket - 1);
}

/// One thread's slice of the registry: plain (non-atomic) slots, written
/// only by the owning thread. The verify annotations make that discipline
/// checkable; in normal builds inc() compiles to a single array add, the
/// same cost as the ThreadCounters fields it replaces.
class MetricsShard {
 public:
  void inc(CounterId id, std::uint64_t n = 1) {
    std::uint64_t& slot = counters_[static_cast<std::size_t>(id)];
    WASP_VERIFY_WR(&slot);
    slot += n;
  }

  [[nodiscard]] std::uint64_t counter(CounterId id) const {
    const std::uint64_t& slot = counters_[static_cast<std::size_t>(id)];
    WASP_VERIFY_RD(&slot);
    return slot;
  }

  void set_gauge(GaugeId id, std::uint64_t v) {
    std::uint64_t& slot = gauges_[static_cast<std::size_t>(id)];
    WASP_VERIFY_WR(&slot);
    slot = v;
  }

  [[nodiscard]] std::uint64_t gauge(GaugeId id) const {
    const std::uint64_t& slot = gauges_[static_cast<std::size_t>(id)];
    WASP_VERIFY_RD(&slot);
    return slot;
  }

  void observe(HistId id, std::uint64_t value) {
    std::uint64_t& slot =
        histograms_[static_cast<std::size_t>(id)][hist_bucket(value)];
    WASP_VERIFY_WR(&slot);
    ++slot;
  }

  [[nodiscard]] std::uint64_t hist_count(HistId id, std::size_t bucket) const {
    const std::uint64_t& slot =
        histograms_[static_cast<std::size_t>(id)][bucket];
    WASP_VERIFY_RD(&slot);
    return slot;
  }

  void reset();

 private:
  std::array<std::uint64_t, kNumCounters> counters_{};
  std::array<std::uint64_t, kNumGauges> gauges_{};
  std::array<std::array<std::uint64_t, kHistBuckets>, kNumHistograms>
      histograms_{};
};

/// Immutable copy of a registry's state at one point in time. Cheap to copy
/// around (a few KB); SsspResult carries one per run.
struct MetricsSnapshot {
  int threads = 0;
  double seconds = 0.0;  ///< parallel-phase wall time of the run
  std::array<std::uint64_t, kNumCounters> totals{};
  std::array<std::uint64_t, kNumGauges> gauges{};  ///< max across shards
  std::array<std::array<std::uint64_t, kHistBuckets>, kNumHistograms>
      histograms{};  ///< merged across shards
  std::vector<std::array<std::uint64_t, kNumCounters>> per_thread;

  [[nodiscard]] std::uint64_t counter(CounterId id) const {
    return totals[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] std::uint64_t gauge(GaugeId id) const {
    return gauges[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] std::uint64_t hist_count(HistId id, std::size_t bucket) const {
    return histograms[static_cast<std::size_t>(id)][bucket];
  }

  /// Full export: counters (total + per thread), gauges, histogram buckets.
  void write_json(std::ostream& os) const;
  /// Tabular export: "metric,thread,value" rows, per-thread plus "total".
  void write_csv(std::ostream& os) const;
};

/// Per-thread-sharded registry. shard(tid) is wait-free for the owner;
/// snapshot()/reset() must be ordered against worker writes by the caller
/// (in practice: called outside team.run()).
class MetricsRegistry {
 public:
  explicit MetricsRegistry(int threads);

  [[nodiscard]] int threads() const { return static_cast<int>(shards_.size()); }

  [[nodiscard]] MetricsShard& shard(int tid) {
    return shards_[static_cast<std::size_t>(tid)].value;
  }
  [[nodiscard]] const MetricsShard& shard(int tid) const {
    return shards_[static_cast<std::size_t>(tid)].value;
  }

  void set_elapsed_seconds(double s) { seconds_ = s; }
  [[nodiscard]] double elapsed_seconds() const { return seconds_; }

  /// Zeroes every shard (a run's entry point calls this so a registry can be
  /// reused across Solver::solve calls).
  void reset();

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  std::vector<CachePadded<MetricsShard>> shards_;
  double seconds_ = 0.0;
};

}  // namespace wasp::obs
