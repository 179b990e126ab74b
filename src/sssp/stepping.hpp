// The stepping algorithms of Dong, Gu, Sun & Zhang (SPAA'21): each
// bulk-synchronous round extracts and processes every frontier vertex whose
// tentative distance is below a threshold.
//
//  * Δ*-stepping: threshold = (current frontier minimum) + Δ — like
//    Δ-stepping but with a sliding window instead of fixed bucket edges.
//  * ρ-stepping: threshold chosen (by sampling) so that about ρ vertices
//    fall below it each round.
//
// Both run on the round skeleton of sssp/rounds.hpp (a lazy-batched
// FrontierBag frontier) with the two optimizations the paper attributes to
// them: super-sparse rounds (tiny frontiers are processed sequentially,
// skipping parallel overhead and cutting barrier cost on road graphs) and
// the direction-optimizing pull step on dense frontiers of undirected
// graphs (their Mawi lifeline).
#pragma once

#include "graph/graph.hpp"
#include "sssp/common.hpp"
#include "support/thread_team.hpp"

namespace wasp {

/// Threshold rule selector for stepping_sssp.
enum class SteppingKind {
  kDeltaStar,  ///< threshold = frontier min + delta
  kRho,        ///< threshold = estimated rho-th smallest frontier distance
  kRadius,     ///< threshold = min over frontier of dist(v) + r_k(v)
               ///< (radius-stepping, Blelloch et al. SPAA'16 — related work)
};

/// Runs Δ*-stepping (delta = window width, >= 1), ρ-stepping (rho = batch
/// size, >= 1) or radius-stepping (radii = per-vertex k-radius from
/// compute_radii; required for kRadius, ignored otherwise).
SsspResult stepping_sssp(const Graph& g, VertexId source, SteppingKind kind,
                         Weight delta, std::uint64_t rho,
                         bool direction_optimize, RunContext& ctx,
                         const std::vector<Distance>* radii = nullptr);

/// Radius-stepping preprocessing: r_k(v) = distance from v to its k-th
/// nearest out-neighbour, computed by a truncated local Dijkstra per vertex
/// (parallelized over vertices).
std::vector<Distance> compute_radii(const Graph& g, std::uint32_t k,
                                    ThreadTeam& team);

}  // namespace wasp
