#include "sssp/common.hpp"

#include <algorithm>
#include <sstream>

#include "support/errors.hpp"
#include "support/thread_team.hpp"

namespace wasp {

namespace {

/// The one Algorithm <-> name table. `alias` is the accepted long form
/// (null = none); canonical names are what the CLI and bench labels print.
struct AlgorithmEntry {
  Algorithm algo;
  const char* name;
  const char* alias;
};

constexpr AlgorithmEntry kAlgorithms[] = {
    {Algorithm::kDijkstra, "dijkstra", nullptr},
    {Algorithm::kBellmanFord, "bf", "bellman-ford"},
    {Algorithm::kDeltaStepping, "gap", "delta"},
    {Algorithm::kJulienne, "gbbs", "julienne"},
    {Algorithm::kDeltaStar, "dstar", "delta-star"},
    {Algorithm::kRhoStepping, "rho", "rho-stepping"},
    {Algorithm::kRadiusStepping, "radius", "radius-stepping"},
    {Algorithm::kMqDijkstra, "mq", "multiqueue"},
    {Algorithm::kSmqDijkstra, "smq", "stealing-multiqueue"},
    {Algorithm::kObim, "galois", "obim"},
    {Algorithm::kWasp, "wasp", nullptr},
};

}  // namespace

const char* to_string(Algorithm a) {
  for (const AlgorithmEntry& e : kAlgorithms)
    if (e.algo == a) return e.name;
  return "?";
}

Algorithm parse_algorithm(std::string_view name) {
  for (const AlgorithmEntry& e : kAlgorithms) {
    if (name == e.name) return e.algo;
    if (e.alias != nullptr && name == e.alias) return e.algo;
  }
  throw std::invalid_argument("unknown algorithm: " + std::string(name) +
                              " (expected one of " + algorithm_list() + ")");
}

std::string algorithm_list() {
  std::string out;
  for (const AlgorithmEntry& e : kAlgorithms) {
    if (!out.empty()) out += '|';
    out += e.name;
  }
  return out;
}

void SsspOptions::validate() const {
  const auto fail = [](const std::string& what) {
    throw InvalidOptionsError("SsspOptions: " + what);
  };
  if (threads < 1) fail("threads must be >= 1");
  if (delta == 0) fail("delta must be >= 1 (zero-width buckets never drain)");
  if (wasp.theta == 0) fail("wasp.theta must be >= 1");
  if (wasp.steal_retries < 0) fail("wasp.steal_retries must be >= 0");
  switch (wasp.chunk_capacity) {
    case 16: case 32: case 64: case 128: case 256:
      break;
    default: {
      std::ostringstream os;
      os << "wasp.chunk_capacity must be one of 16, 32, 64, 128, 256 (got "
         << wasp.chunk_capacity << ")";
      fail(os.str());
    }
  }
  if (wasp.partition.num_fragments < 0) {
    fail("wasp.partition.num_fragments must be >= 0 (0 = one per NUMA node)");
  }
  if (wasp.partition.flush_threshold < 1 ||
      wasp.partition.flush_threshold > 256) {
    fail("wasp.partition.flush_threshold must be in [1, 256]");
  }
  if (stepping.rho == 0) fail("stepping.rho must be >= 1");
  if (stepping.radius_k == 0) fail("stepping.radius_k must be >= 1");
  if (mq.c < 1) fail("mq.c must be >= 1");
  if (mq.stickiness < 1) fail("mq.stickiness must be >= 1");
  if (mq.buffer < 1) fail("mq.buffer must be >= 1");
  if (smq.steal_batch < 0) fail("smq.steal_batch must be >= 0");
  if (obim.chunk_size == 0) fail("obim.chunk_size must be >= 1");
  if (prefetch_lookahead > 256) {
    // Past a few dozen entries the prefetches evict each other before use;
    // a huge value is a typo, not a tuning choice.
    fail("prefetch_lookahead must be <= 256 (0 disables)");
  }
}

int WaspConfig::fragments(int team_size) const {
  if (!partition.enabled) return 1;
  int want = partition.num_fragments;
  if (want == 0) {
    want = topology ? topology->num_nodes()
                    : NumaTopology::detect().num_nodes();
  }
  return std::clamp(want, 1, team_size);
}

void finalize_result(RunContext& ctx, double seconds, SsspResult& result) {
  obs::MetricsShard& s0 = ctx.metrics.shard(0);
  s0.set_gauge(obs::GaugeId::kTeamJobs, ctx.team.jobs_run());
  s0.set_gauge(obs::GaugeId::kTeamJobNs, ctx.team.job_ns());
  ctx.metrics.set_elapsed_seconds(seconds);
  result.metrics = ctx.metrics.snapshot();
}

}  // namespace wasp
