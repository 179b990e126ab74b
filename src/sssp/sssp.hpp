// Unified SSSP front-end: one call dispatching to any of the eleven
// implementations (Wasp, the six paper baselines, two related-work extension
// baselines — radius-stepping and the Stealing MultiQueue — and two
// references), all returning the same SsspResult.
//
//   #include "sssp/sssp.hpp"
//   wasp::SsspOptions opt;
//   opt.algo = wasp::Algorithm::kWasp;
//   opt.threads = 8;
//   opt.delta = 1;
//   wasp::SsspResult r = wasp::run_sssp(graph, source, opt);
//
// Per-algorithm knobs are nested (opt.stepping.rho, opt.mq.c, ...); options
// are validated once at this front door (SsspOptions::validate()).
//
// run_sssp is a one-shot Solver: callers that amortize worker-thread
// creation, NUMA detection, and metrics allocation across many runs should
// hold a wasp::Solver (sssp/solver.hpp).
#pragma once

#include "graph/graph.hpp"
#include "sssp/common.hpp"

namespace wasp {

/// Runs the algorithm selected by `options.algo` on a fresh Solver of
/// `options.threads` workers.
SsspResult run_sssp(const Graph& g, VertexId source, const SsspOptions& options);

namespace detail {
/// The dispatch behind Solver::solve: validates inputs and options, acquires
/// ctx.dist from ctx.pool, then runs options.algo under `ctx` (ctx.metrics
/// needs >= ctx.team.size() shards; it is reset here).
SsspResult dispatch_sssp(const Graph& g, VertexId source,
                         const SsspOptions& options, RunContext& ctx);
}  // namespace detail

}  // namespace wasp
