#include "obs/metrics.hpp"

#include <ostream>
#include <stdexcept>

namespace wasp::obs {

const char* counter_name(CounterId id) {
  switch (id) {
    case CounterId::kRelaxations: return "relaxations";
    case CounterId::kUpdates: return "updates";
    case CounterId::kSteals: return "steals";
    case CounterId::kStealAttempts: return "steal_attempts";
    case CounterId::kStaleSkips: return "stale_skips";
    case CounterId::kVerticesProcessed: return "vertices_processed";
    case CounterId::kRounds: return "rounds";
    case CounterId::kBucketAdvances: return "bucket_advances";
    case CounterId::kTerminationScans: return "termination_scans";
    case CounterId::kChunkAllocs: return "chunk_allocs";
    case CounterId::kBarrierNs: return "barrier_ns";
    case CounterId::kQueueOpNs: return "queue_op_ns";
    case CounterId::kStealNs: return "steal_ns";
    case CounterId::kIdleNs: return "idle_ns";
    case CounterId::kEpochSweeps: return "epoch_sweeps";
    case CounterId::kPrefetchIssued: return "prefetch_issued";
    case CounterId::kQueriesSubmitted: return "queries_submitted";
    case CounterId::kQueriesServed: return "queries_served";
    case CounterId::kQueriesServedStale: return "queries_served_stale";
    case CounterId::kQueriesServedCached: return "queries_served_cached";
    case CounterId::kQueriesCancelled: return "queries_cancelled";
    case CounterId::kQueriesDeadlineExpired: return "queries_deadline_expired";
    case CounterId::kQueriesShed: return "queries_shed";
    case CounterId::kQueriesRejected: return "queries_rejected";
    case CounterId::kQueriesCoalesced: return "queries_coalesced";
    case CounterId::kQueriesFailed: return "queries_failed";
    case CounterId::kQueryRetries: return "query_retries";
    case CounterId::kSolverRebuilds: return "solver_rebuilds";
    case CounterId::kWatchdogCancels: return "watchdog_cancels";
    case CounterId::kRepairBatches: return "repair_batches";
    case CounterId::kRepairConeVertices: return "repair_cone_vertices";
    case CounterId::kRepairSeedVertices: return "repair_seed_vertices";
    case CounterId::kGraphCompactions: return "graph_compactions";
    case CounterId::kGraphCompactedArcs: return "graph_compacted_arcs";
    case CounterId::kRemoteRelaxations: return "remote_relaxations";
    case CounterId::kRemoteBatches: return "remote_batches";
    case CounterId::kLocalSteals: return "local_steals";
    case CounterId::kRemoteSteals: return "remote_steals";
    case CounterId::kPartitionBuilds: return "partition_builds";
  }
  return "?";
}

const char* gauge_name(GaugeId id) {
  switch (id) {
    case GaugeId::kMaxFrontier: return "max_frontier";
    case GaugeId::kTeamJobs: return "team_jobs";
    case GaugeId::kTeamJobNs: return "team_job_ns";
  }
  return "?";
}

const char* histogram_name(HistId id) {
  switch (id) {
    case HistId::kStealSweepNs: return "steal_sweep_ns";
    case HistId::kIdleScanNs: return "idle_scan_ns";
    case HistId::kRoundFrontier: return "round_frontier";
    case HistId::kRemoteQueueDepth: return "remote_queue_depth";
  }
  return "?";
}

void MetricsShard::reset() {
  for (std::uint64_t& c : counters_) {
    WASP_VERIFY_WR(&c);
    c = 0;
  }
  for (std::uint64_t& g : gauges_) {
    WASP_VERIFY_WR(&g);
    g = 0;
  }
  for (auto& hist : histograms_) {
    for (std::uint64_t& b : hist) {
      WASP_VERIFY_WR(&b);
      b = 0;
    }
  }
}

MetricsRegistry::MetricsRegistry(int threads) {
  if (threads < 1)
    throw std::invalid_argument("MetricsRegistry: threads must be >= 1");
  shards_.resize(static_cast<std::size_t>(threads));
}

void MetricsRegistry::reset() {
  for (auto& s : shards_) s.value.reset();
  seconds_ = 0.0;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.threads = threads();
  snap.seconds = seconds_;
  snap.per_thread.resize(shards_.size());
  for (std::size_t t = 0; t < shards_.size(); ++t) {
    const MetricsShard& s = shards_[t].value;
    for (std::size_t c = 0; c < kNumCounters; ++c) {
      const std::uint64_t v = s.counter(static_cast<CounterId>(c));
      snap.per_thread[t][c] = v;
      snap.totals[c] += v;
    }
    for (std::size_t g = 0; g < kNumGauges; ++g) {
      const std::uint64_t v = s.gauge(static_cast<GaugeId>(g));
      if (v > snap.gauges[g]) snap.gauges[g] = v;
    }
    for (std::size_t h = 0; h < kNumHistograms; ++h)
      for (std::size_t b = 0; b < kHistBuckets; ++b)
        snap.histograms[h][b] += s.hist_count(static_cast<HistId>(h), b);
  }
  return snap;
}

void MetricsSnapshot::write_json(std::ostream& os) const {
  os << "{\"threads\":" << threads << ",\"seconds\":" << seconds
     << ",\"counters\":{";
  for (std::size_t c = 0; c < kNumCounters; ++c) {
    if (c != 0) os << ',';
    os << '"' << counter_name(static_cast<CounterId>(c)) << "\":" << totals[c];
  }
  os << "},\"per_thread\":[";
  for (std::size_t t = 0; t < per_thread.size(); ++t) {
    if (t != 0) os << ',';
    os << '{';
    for (std::size_t c = 0; c < kNumCounters; ++c) {
      if (c != 0) os << ',';
      os << '"' << counter_name(static_cast<CounterId>(c))
         << "\":" << per_thread[t][c];
    }
    os << '}';
  }
  os << "],\"gauges\":{";
  for (std::size_t g = 0; g < kNumGauges; ++g) {
    if (g != 0) os << ',';
    os << '"' << gauge_name(static_cast<GaugeId>(g)) << "\":" << gauges[g];
  }
  os << "},\"histograms\":{";
  for (std::size_t h = 0; h < kNumHistograms; ++h) {
    if (h != 0) os << ',';
    os << '"' << histogram_name(static_cast<HistId>(h)) << "\":[";
    // Trailing zero buckets are elided; bucket b covers
    // [hist_bucket_floor(b), hist_bucket_floor(b + 1)).
    std::size_t last = kHistBuckets;
    while (last > 0 && histograms[h][last - 1] == 0) --last;
    for (std::size_t b = 0; b < last; ++b) {
      if (b != 0) os << ',';
      os << histograms[h][b];
    }
    os << ']';
  }
  os << "}}";
}

void MetricsSnapshot::write_csv(std::ostream& os) const {
  os << "metric,thread,value\n";
  for (std::size_t c = 0; c < kNumCounters; ++c) {
    const char* name = counter_name(static_cast<CounterId>(c));
    for (std::size_t t = 0; t < per_thread.size(); ++t)
      os << name << ',' << t << ',' << per_thread[t][c] << '\n';
    os << name << ",total," << totals[c] << '\n';
  }
  for (std::size_t g = 0; g < kNumGauges; ++g)
    os << gauge_name(static_cast<GaugeId>(g)) << ",total," << gauges[g] << '\n';
}

}  // namespace wasp::obs
