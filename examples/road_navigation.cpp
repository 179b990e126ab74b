// Road-network navigation under live traffic: the dynamic workload class
// of docs/DYNAMIC.md (road weights change between queries; link churn
// closes and reopens segments).
//
// Generates a grid road network wrapped in a VersionedGraph, computes
// one-to-all travel times from a depot, then replays traffic ticks: each
// tick applies a GraphDelta batch (congestion spikes, clearing roads, and
// periodic closures/reopenings), and the IncrementalSolver repairs only the
// affected cone instead of re-solving the whole network. Every tick is
// cross-checked against sequential Dijkstra on the current graph.
//
//   ./road_navigation [--side 400] [--threads 4] [--ticks 12] [--spikes 24]
//                     [--delta 64]
#include <algorithm>
#include <cstdio>

#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/incremental.hpp"
#include "support/cli.hpp"
#include "support/random.hpp"

namespace {

/// One existing road segment, sampled uniformly-ish from the current graph.
struct Segment {
  wasp::VertexId u = 0;
  wasp::VertexId v = 0;
  wasp::Weight w = 0;
};

Segment sample_segment(const wasp::VersionedGraph& roads,
                       wasp::Xoshiro256& rng) {
  for (;;) {
    const auto u = static_cast<wasp::VertexId>(
        rng.next_below(roads.num_vertices()));
    const auto adj = roads.out_neighbors(u);
    if (adj.empty()) continue;
    const wasp::WEdge e = adj[rng.next_below(adj.size())];
    return {u, e.dst, e.w};
  }
}

}  // namespace

int main(int argc, char** argv) {
  wasp::ArgParser args("road_navigation",
                       "live-traffic travel times on a grid road network");
  args.add_int("side", 400, "grid side length (side^2 intersections)");
  args.add_int("threads", 4, "worker threads");
  args.add_int("ticks", 12, "traffic update batches to replay");
  args.add_int("spikes", 24, "congestion / clearing events per tick");
  args.add_int("delta", 64, "bucket width (road graphs favour larger delta)");
  args.parse(argc, argv);

  const auto side = static_cast<std::uint32_t>(args.get_int("side"));
  std::printf("building %ux%u road grid...\n", side, side);
  wasp::VersionedGraph roads(
      wasp::gen::grid(side, side, wasp::WeightScheme::uniform(1, 100), 42));
  std::printf("  %u intersections, %llu road segments\n", roads.num_vertices(),
              static_cast<unsigned long long>(roads.num_edges() / 2));

  const wasp::VertexId depot = roads.num_vertices() / 2 + side / 2;  // center

  wasp::SsspOptions options;
  options.algo = wasp::Algorithm::kWasp;
  options.threads = static_cast<int>(args.get_int("threads"));
  options.delta = static_cast<wasp::Weight>(args.get_int("delta"));

  wasp::IncrementalSolver nav(options);
  (void)nav.solve(roads, depot);
  std::printf("one-to-all from depot %u: %.1f ms with %d threads (full solve)\n",
              depot, nav.last_repair().seconds * 1e3, options.threads);

  const auto ticks = static_cast<int>(args.get_int("ticks"));
  const auto spikes = static_cast<int>(args.get_int("spikes"));
  wasp::Xoshiro256 rng(7);
  Segment closed;  // the currently closed segment, reopened next closure tick
  bool have_closed = false;

  std::printf("\n%-5s %-4s %-5s %-9s %-8s %-8s %-11s %-11s %s\n", "tick",
              "ver", "ops", "mode", "cone", "seeds", "repair(ms)",
              "dijk(ms)", "check");
  bool all_ok = true;
  for (int tick = 0; tick < ticks; ++tick) {
    wasp::GraphDelta delta;

    // Congestion spikes (weights jump) and clearing roads (weights settle
    // back into the base range).
    for (int s = 0; s < spikes; ++s) {
      const Segment seg = sample_segment(roads, rng);
      if (s % 2 == 0) {
        const auto jam = static_cast<wasp::Weight>(
            std::min<std::uint64_t>(std::uint64_t{seg.w} * 4, 800));
        delta.set_weight(seg.u, seg.v, jam);
      } else {
        delta.set_weight(
            seg.u, seg.v,
            static_cast<wasp::Weight>(1 + rng.next_below(100)));
      }
    }

    // Every fourth tick: reopen the previously closed segment and close a
    // fresh one (structural churn: the erase leaves the segment in its CSR
    // slot as a dead arc and the insert revives that slot, so the graph
    // never compacts).
    if (tick % 4 == 3) {
      if (have_closed) delta.insert(closed.u, closed.v, closed.w);
      closed = sample_segment(roads, rng);
      delta.erase(closed.u, closed.v);
      have_closed = true;
    }

    const std::uint64_t version = roads.apply(delta);
    const wasp::Answer& repaired = nav.solve(roads, depot);
    const wasp::RepairStats& rs = nav.last_repair();

    const wasp::SsspResult reference = wasp::dijkstra(roads.graph(), depot);
    const bool ok = reference.dist == repaired;
    all_ok = all_ok && ok;
    std::printf("%-5d %-4llu %-5zu %-9s %-8llu %-8llu %-11.2f %-11.2f %s\n",
                tick, static_cast<unsigned long long>(version), delta.size(),
                rs.full_solve ? "full" : "repair",
                static_cast<unsigned long long>(rs.cone_vertices),
                static_cast<unsigned long long>(rs.seed_vertices),
                rs.seconds * 1e3, reference.metrics.seconds * 1e3,
                ok ? "exact" : "MISMATCH (bug!)");
  }

  std::printf("\ncross-check vs sequential Dijkstra after every batch: %s\n",
              all_ok ? "EXACT MATCH" : "MISMATCH (bug!)");
  return all_ok ? 0 : 1;
}
