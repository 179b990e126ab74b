// GAP-style synchronous delta-stepping (Meyer & Sanders' algorithm as
// engineered in the GAP Benchmarking Suite): thread-local bins, a shared
// frontier array processed in bulk-synchronous steps, and the bucket-fusion
// optimization of Zhang et al. (CGO'20) that lets a thread keep processing
// its own small current-bin contents within a step.
//
// Barrier wait time is instrumented per thread — the Figure 1 breakdown.
#pragma once

#include "graph/graph.hpp"
#include "sssp/common.hpp"
#include "support/thread_team.hpp"

namespace wasp {

/// Runs GAP-style delta-stepping, with bucket fusion, at bucket width
/// `delta` (>= 1) on ctx.team.
SsspResult delta_stepping(const Graph& g, VertexId source, Weight delta,
                          RunContext& ctx);

}  // namespace wasp
