// GBBS-style synchronous delta-stepping over a Julienne bucketing structure
// (Dhulipala, Blelloch & Shun, SPAA'17): a bounded window of "open" buckets
// (GBBS's default is 32) plus an overflow bucket that is re-bucketed when
// the window is exhausted.  Rounds are bulk-synchronous with no bucket
// fusion — which is exactly why this baseline collapses on road graphs in
// the paper (Figure 5, >30x slower than Wasp).
//
// Includes the direction-optimizing pull step GBBS applies on very dense
// frontiers of undirected graphs (the optimization that saves it on Mawi,
// §5.1).
#pragma once

#include "graph/graph.hpp"
#include "sssp/common.hpp"
#include "support/thread_team.hpp"

namespace wasp {

/// Runs GBBS/Julienne-style delta-stepping (delta >= 1).
SsspResult julienne_sssp(const Graph& g, VertexId source, Weight delta,
                         RunContext& ctx);

}  // namespace wasp
