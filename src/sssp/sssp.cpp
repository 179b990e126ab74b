#include "sssp/sssp.hpp"

#include <sstream>

#include "support/errors.hpp"

#include "sssp/bellman_ford.hpp"
#include "sssp/delta_stepping.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/julienne.hpp"
#include "sssp/mq_dijkstra.hpp"
#include "sssp/obim.hpp"
#include "sssp/solver.hpp"
#include "sssp/stepping.hpp"
#include "sssp/wasp.hpp"

namespace wasp {

namespace {

/// Rejects inputs no algorithm can run on, with typed errors, before any
/// worker thread is involved. O(1): Graph::from_csr already validated the
/// CSR arrays at construction.
void check_inputs(const Graph& g, VertexId source) {
  if (g.num_vertices() == 0)
    throw InvalidGraphError("run_sssp: graph has no vertices");
  if (source >= g.num_vertices()) {
    std::ostringstream os;
    os << "run_sssp: source " << source << " out of range [0, "
       << g.num_vertices() << ")";
    throw InvalidSourceError(os.str());
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
  check_inputs(g, source);
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
  // shards (and counts their fills itself), so it is not charged a
  // pooled-array acquire either.
  if (options.uses_distance_pool(ctx.team.size())) {
    ctx.dist = &ctx.pool->acquire(g.num_vertices());
    ctx.metrics.shard(0).inc(obs::CounterId::kEpochSweeps);
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
      // its cost is excluded from metrics.seconds like the baselines' graph
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
    case Algorithm::kWasp:
      return wasp_sssp(g, source, options.delta, options.wasp, ctx);
    case Algorithm::kObim:
      return obim_sssp(g, source, options.delta, options.obim.chunk_size, ctx);
  }
  return dijkstra(g, source);  // unreachable
  }();
  // The team has joined by now, so every worker's polls happened-before
  // this check. A fired token leaves a partial relaxation in the distance
  // array (or the cached fragment shards); the next solve fills them before
  // use, so the Solver stays reusable without a discard here.
  if (ctx.cancel != nullptr && ctx.cancel->cancel_requested())
    throw_cancelled(*ctx.cancel);
  return result;
}

}  // namespace detail

SsspResult run_sssp(const Graph& g, VertexId source,
                    const SsspOptions& options) {
  return Solver(options).solve(g, source);
}

}  // namespace wasp
