#include "sssp/sssp.hpp"

#include <sstream>

#include "support/errors.hpp"

#include "sssp/bellman_ford.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/julienne.hpp"
#include "sssp/mq_dijkstra.hpp"
#include "sssp/obim.hpp"
#include "sssp/smq_dijkstra.hpp"
#include "sssp/stepping.hpp"
#include "sssp/wasp.hpp"

namespace wasp {

namespace {

/// Rejects inputs no algorithm can run on, with typed errors, before any
/// worker thread is involved. The O(1) checks run always; the O(n + m) CSR
/// scan runs only with options.paranoid_checks (Graph::from_csr already
/// validates at construction, so this re-scan is for callers that bypassed
/// it or mutated buffers underneath).
void check_inputs(const Graph& g, VertexId source, const SsspOptions& options) {
  if (g.num_vertices() == 0)
    throw InvalidGraphError("run_sssp: graph has no vertices");
  if (source >= g.num_vertices()) {
    std::ostringstream os;
    os << "run_sssp: source " << source << " out of range [0, "
       << g.num_vertices() << ")";
    throw InvalidSourceError(os.str());
  }
  if (!options.paranoid_checks) return;
  const auto& offsets = g.offsets();
  const auto& adjacency = g.adjacency();
  for (std::size_t v = 0; v + 1 < offsets.size(); ++v) {
    if (offsets[v] > offsets[v + 1]) {
      std::ostringstream os;
      os << "run_sssp: CSR offsets decrease at vertex " << v << " ("
         << offsets[v] << " > " << offsets[v + 1] << ")";
      throw InvalidGraphError(os.str());
    }
  }
  for (std::size_t i = 0; i < adjacency.size(); ++i) {
    if (adjacency[i].dst >= g.num_vertices()) {
      std::ostringstream os;
      os << "run_sssp: adjacency[" << i << "].dst = " << adjacency[i].dst
         << " out of range [0, " << g.num_vertices() << ")";
      throw InvalidGraphError(os.str());
    }
  }
}

/// Throws the typed cancellation outcome for a token that has fired.
[[noreturn]] void throw_cancelled(const CancelToken& token) {
  const CancelReason reason = token.reason();
  std::ostringstream os;
  os << "run_sssp: solve cancelled (" << to_string(reason) << ")";
  throw SolveCancelledError(os.str(), reason);
}

}  // namespace

namespace detail {

SsspResult dispatch_sssp(const Graph& g, VertexId source,
                         const SsspOptions& options, RunContext& ctx) {
  options.validate();
  check_inputs(g, source, options);
  ctx.metrics.reset();
  ctx.cancel = options.cancel;
  // Pre-fired token (or an already-expired deadline): reject before any
  // worker or distance array is touched.
  if (ctx.cancel != nullptr && ctx.cancel->poll()) throw_cancelled(*ctx.cancel);
  if (options.algo == Algorithm::kDijkstra) {
    // The sequential reference keeps its own plain distance vector; don't
    // charge it a pooled-array acquisition. It is also not cancellable
    // mid-run: no worker polls, so the token was only checked above.
    return dijkstra(g, source);
  }
  // A Wasp run with more than one fragment keeps its distances in fragment
  // shards (and counts their sweeps itself), so it is not charged a
  // pooled-array acquire either.
  DistancePool local_pool;
  if (options.uses_distance_pool(ctx.team.size())) {
    DistancePool& pool = ctx.pool != nullptr ? *ctx.pool : local_pool;
    const std::uint64_t sweeps_before = pool.sweeps();
    ctx.dist = &pool.acquire(g.num_vertices());
    ctx.metrics.shard(0).inc(obs::CounterId::kEpochSweeps,
                             pool.sweeps() - sweeps_before);
  }
  ctx.prefetch_lookahead = options.prefetch_lookahead;
  SsspResult result = [&]() -> SsspResult {
  switch (options.algo) {
    case Algorithm::kDijkstra:
      return dijkstra(g, source);
    case Algorithm::kBellmanFord:
      return bellman_ford(g, source, ctx);
    case Algorithm::kDeltaStepping:
      return delta_stepping(g, source, options.delta, options.gap.bucket_fusion,
                            ctx);
    case Algorithm::kJulienne:
      return julienne_sssp(g, source, options.delta,
                           options.stepping.direction_optimize, ctx);
    case Algorithm::kDeltaStar:
      return stepping_sssp(g, source, SteppingKind::kDeltaStar, options.delta,
                           options.stepping.rho,
                           options.stepping.direction_optimize, ctx);
    case Algorithm::kRhoStepping:
      return stepping_sssp(g, source, SteppingKind::kRho, options.delta,
                           options.stepping.rho,
                           options.stepping.direction_optimize, ctx);
    case Algorithm::kRadiusStepping: {
      // Preprocessing (the r_k radii) is part of radius-stepping's contract;
      // its cost is excluded from stats.seconds like the baselines' graph
      // loading, but callers wanting end-to-end cost can time this call.
      const std::vector<Distance> radii =
          compute_radii(g, options.stepping.radius_k, ctx.team);
      return stepping_sssp(g, source, SteppingKind::kRadius, options.delta,
                           options.stepping.rho,
                           options.stepping.direction_optimize, ctx, &radii);
    }
    case Algorithm::kMqDijkstra:
      return mq_dijkstra(g, source, options.mq.c, options.mq.stickiness,
                         options.mq.buffer, options.seed, ctx);
    case Algorithm::kSmqDijkstra:
      return smq_dijkstra(g, source, options.smq.steal_batch, options.seed,
                          ctx);
    case Algorithm::kWasp: {
      WaspConfig cfg = options.wasp;
      if (cfg.chaos == nullptr) cfg.chaos = ctx.chaos;
      return wasp_sssp(g, source, options.delta, cfg, ctx);
    }
    case Algorithm::kObim:
      return obim_sssp(g, source, options.delta, options.obim.chunk_size, ctx);
  }
  return dijkstra(g, source);  // unreachable
  }();
  // The team has joined by now, so every worker's polls happened-before
  // this check. A fired token means the distance array (or the cached
  // fragment shards) holds a partial relaxation — bump its epoch so the
  // reused state is logically all-inf again (the Solver stays reusable) and
  // surface the typed outcome.
  if (ctx.cancel != nullptr && ctx.cancel->cancel_requested()) {
    if (ctx.dist != nullptr) {
      ctx.dist->new_epoch();
    } else if (ctx.partitions != nullptr) {
      ctx.partitions->new_epoch();
    }
    throw_cancelled(*ctx.cancel);
  }
  return result;
}

}  // namespace detail

SsspResult run_sssp(const Graph& g, VertexId source, const SsspOptions& options,
                    ThreadTeam& team) {
  obs::MetricsRegistry metrics(team.size());
  RunContext ctx{team, metrics, options.trace, options.observer,
                 options.chaos};
  return detail::dispatch_sssp(g, source, options, ctx);
}

SsspResult run_sssp(const Graph& g, VertexId source,
                    const SsspOptions& options) {
  // Validate before spinning up the team so a bad threads count raises
  // InvalidOptionsError (not ThreadTeam's bare invalid_argument).
  options.validate();
  ThreadTeam team(options.threads);
  return run_sssp(g, source, options, team);
}

}  // namespace wasp
