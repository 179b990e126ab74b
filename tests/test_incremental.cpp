// Incremental SSSP repair over versioned graphs (graph/delta.hpp +
// sssp/incremental.hpp): the correctness anchor is bit-identical distances
// vs a from-scratch solve after every batch, across seeded randomized batch
// streams (decrease-only, increase-only, mixed, structural insert/erase) on
// the four ISSUE graph shapes plus a directed R-MAT (which exercises the
// cached-transpose boundary walk). Also pins the VersionedGraph contract
// (atomic validation, journal semantics, compaction on demand), every
// warm-state fallback path, and the QueryService update gate: concurrent
// update-vs-query streams where every served answer must match the
// reference distances of exactly the graph version it reports, and the
// fresh cache path (an entry is served without a solve only at exactly the
// graph's current uid and version).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/builder.hpp"
#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "service/service.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/incremental.hpp"
#include "support/cancel.hpp"
#include "support/errors.hpp"
#include "support/random.hpp"

namespace wasp {
namespace {

SsspOptions test_options() {
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 2;
  options.delta = 16;
  return options;
}

/// The four ISSUE shapes (all undirected) plus a directed R-MAT, small
/// enough for a per-batch Dijkstra cross-check under TSan.
Graph make_shape(const std::string& name) {
  const WeightScheme ws = WeightScheme::uniform(1, 100);
  if (name == "grid") return gen::grid(28, 28, ws, 11);
  if (name == "chain") return gen::chain_forest(6, 250, ws, 13);
  // One 3,000-vertex path: cutting it strands the whole tail, so its cones
  // reach past kInlineRepairWork and repair on the team.
  if (name == "long_chain") return gen::chain_forest(1, 3000, ws, 29);
  if (name == "er") return gen::erdos_renyi(1600, 6.0, ws, 17);
  if (name == "star") return gen::star_hub(1600, 0.3, 0.3, ws, 19);
  if (name == "rmat_dir")
    return gen::rmat(10, 8192, 0.57, 0.19, 0.19, ws, 23, /*undirected=*/false);
  ADD_FAILURE() << "unknown shape " << name;
  return gen::grid(2, 2, ws, 1);
}

VertexId pick_source(const VersionedGraph& vg) {
  for (VertexId u = 0; u < vg.num_vertices(); ++u)
    if (!vg.out_neighbors(u).empty()) return u;
  return 0;
}

enum class Mode { kDecrease, kIncrease, kMixed, kStructural };

const char* to_name(Mode m) {
  switch (m) {
    case Mode::kDecrease: return "decrease";
    case Mode::kIncrease: return "increase";
    case Mode::kMixed: return "mixed";
    case Mode::kStructural: return "structural";
  }
  return "?";
}

struct ArcSample {
  VertexId u = 0;
  WEdge e{};
};

bool sample_arc(const VersionedGraph& vg, Xoshiro256& rng, ArcSample* out) {
  for (int tries = 0; tries < 256; ++tries) {
    const auto u = static_cast<VertexId>(rng.next_below(vg.num_vertices()));
    const auto adj = vg.out_neighbors(u);
    if (adj.empty()) continue;
    out->u = u;
    out->e = adj[rng.next_below(adj.size())];
    return true;
  }
  return false;
}

/// Logical-edge key: undirected graphs store both arcs, so normalize to one
/// orientation — each batch touches a logical edge at most once (apply()
/// would otherwise see a set_weight or erase racing its own staged erase).
std::pair<VertexId, VertexId> edge_key(const VersionedGraph& vg, VertexId u,
                                       VertexId v) {
  if (vg.is_undirected() && v < u) std::swap(u, v);
  return {u, v};
}

GraphDelta random_batch(const VersionedGraph& vg, Mode mode, Xoshiro256& rng,
                        int ops) {
  GraphDelta delta;
  std::set<std::pair<VertexId, VertexId>> used;
  const VertexId n = vg.num_vertices();
  for (int op = 0; op < ops; ++op) {
    if (mode == Mode::kStructural && op % 2 == 1) {
      // Insert a fresh arc between random distinct vertices (parallel arcs
      // are allowed, so only intra-batch key reuse needs avoiding).
      for (int tries = 0; tries < 64; ++tries) {
        const auto u = static_cast<VertexId>(rng.next_below(n));
        const auto v = static_cast<VertexId>(rng.next_below(n));
        if (u == v || !used.insert(edge_key(vg, u, v)).second) continue;
        delta.insert(u, v, static_cast<Weight>(1 + rng.next_below(100)));
        break;
      }
      continue;
    }
    ArcSample s;
    if (!sample_arc(vg, rng, &s)) continue;
    if (!used.insert(edge_key(vg, s.u, s.e.dst)).second) continue;
    const bool decrease = mode == Mode::kDecrease ||
                          (mode == Mode::kMixed && op % 2 == 0);
    if (mode == Mode::kStructural) {
      delta.erase(s.u, s.e.dst);
    } else if (decrease) {
      const auto cap = std::max<Weight>(1, s.e.w);
      delta.set_weight(s.u, s.e.dst,
                       static_cast<Weight>(1 + rng.next_below(cap)));
    } else {
      delta.set_weight(
          s.u, s.e.dst,
          static_cast<Weight>(s.e.w + 1 + rng.next_below(100)));
    }
  }
  return delta;
}

// --- randomized batch streams: bit-identical repair on every shape --------

struct StreamCase {
  const char* shape;
  Mode mode;
};

std::string stream_name(const testing::TestParamInfo<StreamCase>& info) {
  return std::string(info.param.shape) + "_" + to_name(info.param.mode);
}

class IncrementalStream : public testing::TestWithParam<StreamCase> {};

TEST_P(IncrementalStream, BitIdenticalToFromScratchAfterEveryBatch) {
  const StreamCase& p = GetParam();
  VersionedGraph vg(make_shape(p.shape));
  const VertexId source = pick_source(vg);

  IncrementalSolver inc(test_options());
  const std::vector<Distance>& first = inc.solve(vg, source);
  EXPECT_TRUE(inc.last_repair().full_solve);
  ASSERT_EQ(dijkstra(vg.graph(), source).dist, first);

  Xoshiro256 rng(0xD17AULL * (1 + static_cast<std::uint64_t>(p.mode)) +
                 std::string(p.shape).size());
  int incremental = 0;
  const int batches = 8;
  for (int b = 0; b < batches; ++b) {
    const GraphDelta delta = random_batch(vg, p.mode, rng, 12);
    if (delta.empty()) continue;
    (void)vg.apply(delta);

    const std::vector<Distance>& repaired = inc.solve(vg, source);
    if (!inc.last_repair().full_solve) ++incremental;
    const SsspResult reference = dijkstra(vg.graph(), source);
    ASSERT_EQ(reference.dist, repaired)
        << p.shape << "/" << to_name(p.mode) << " batch " << b;
  }
  // The warm path must actually be the one under test, not a silent
  // full-solve fallback on every batch.
  EXPECT_GT(incremental, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, IncrementalStream,
    testing::Values(StreamCase{"grid", Mode::kDecrease},
                    StreamCase{"grid", Mode::kIncrease},
                    StreamCase{"grid", Mode::kMixed},
                    StreamCase{"grid", Mode::kStructural},
                    StreamCase{"chain", Mode::kDecrease},
                    StreamCase{"chain", Mode::kIncrease},
                    StreamCase{"chain", Mode::kMixed},
                    StreamCase{"chain", Mode::kStructural},
                    StreamCase{"er", Mode::kDecrease},
                    StreamCase{"er", Mode::kIncrease},
                    StreamCase{"er", Mode::kMixed},
                    StreamCase{"er", Mode::kStructural},
                    StreamCase{"star", Mode::kDecrease},
                    StreamCase{"star", Mode::kIncrease},
                    StreamCase{"star", Mode::kMixed},
                    StreamCase{"star", Mode::kStructural},
                    StreamCase{"rmat_dir", Mode::kDecrease},
                    StreamCase{"rmat_dir", Mode::kIncrease},
                    StreamCase{"rmat_dir", Mode::kMixed},
                    StreamCase{"rmat_dir", Mode::kStructural}),
    stream_name);

// --- published answers: patched from the engine's log, never rewritten ----

/// kUpdates of the repairer's last run (the registry is reset per repair).
std::uint64_t run_updates(IncrementalSolver& inc) {
  return inc.solver().metrics().snapshot().counter(obs::CounterId::kUpdates);
}

/// The checks every published repair must pass: the answer is exact, it is
/// what the warm array holds, and when the engine logged, the log holds
/// every lowering of the run.
void expect_published_answer(IncrementalSolver& inc, const Graph& g,
                             VertexId source, const std::string& what) {
  const auto answer = inc.answer();
  ASSERT_NE(answer, nullptr) << what;
  EXPECT_EQ(dijkstra(g, source).dist, *answer) << what;
  const AtomicDistances* warm = inc.solver().distances().current();
  ASSERT_NE(warm, nullptr) << what;
  EXPECT_EQ(warm->snapshot(), *answer) << what;
  const RepairStats& rs = inc.last_repair();
  // A repair logs unless its cone alone is too wide; a patched answer
  // always had the log.
  if (!rs.full_solve && (rs.patched || rs.lowered > 0)) {
    EXPECT_EQ(rs.lowered, run_updates(inc)) << what;
  }
}

TEST(IncrementalAnswer, RepairsPublishExactImmutableAnswers) {
  int patched = 0;
  int decoded = 0;
  int inline_runs = 0;
  int team_runs = 0;
  for (const char* shape : {"grid", "chain", "rmat_dir", "long_chain"}) {
    for (const Mode mode : {Mode::kMixed, Mode::kStructural}) {
      const std::string name = std::string(shape) + "/" + to_name(mode);
      VersionedGraph vg(make_shape(shape));
      const VertexId source = pick_source(vg);
      IncrementalSolver inc(test_options());
      (void)inc.solve(vg, source);

      // Every answer published so far, with its version's reference.
      std::vector<std::pair<std::shared_ptr<const std::vector<Distance>>,
                            std::vector<Distance>>>
          held;
      held.emplace_back(inc.answer(), dijkstra(vg.graph(), source).dist);
      Xoshiro256 rng(0xA75ULL + name.size() * 31 +
                     static_cast<std::uint64_t>(mode));
      for (int b = 0; b < 10; ++b) {
        const GraphDelta delta = random_batch(vg, mode, rng, 6);
        if (delta.empty()) continue;
        (void)vg.apply(delta);
        const std::vector<Distance>& returned = inc.solve(vg, source);
        const std::string what = name + " batch " + std::to_string(b);
        EXPECT_EQ(&returned, inc.answer().get()) << what;
        expect_published_answer(inc, vg.graph(), source, what);
        const RepairStats& rs = inc.last_repair();
        if (!rs.full_solve) {
          ++(rs.patched ? patched : decoded);
          EXPECT_EQ(rs.workers,
                    repair_workers(rs.cone_vertices + rs.seed_vertices,
                                   inc.solver().team().size()))
              << what;
          ++(rs.workers == 1 ? inline_runs : team_runs);
        }

        // No new version: the same buffer again, not a copy.
        const auto before = inc.answer();
        EXPECT_EQ(inc.solve(vg, source).data(), before->data()) << what;
        EXPECT_EQ(inc.answer(), before) << what;

        held.emplace_back(inc.answer(), dijkstra(vg.graph(), source).dist);
        for (std::size_t i = 0; i < held.size(); ++i)
          ASSERT_EQ(held[i].second, *held[i].first)
              << what << ": answer " << i << " was written after publishing";
      }
    }
  }
  // Both publishing paths ran, and repairs ran both inline and on the team.
  EXPECT_GT(patched, 0);
  EXPECT_GT(decoded, 0);
  EXPECT_GT(inline_runs, 0);
  EXPECT_GT(team_runs, 0);
}

TEST(IncrementalAnswer, RepairWorkersSplitsAtTheCutoff) {
  EXPECT_EQ(repair_workers(0, 4), 1);
  EXPECT_EQ(repair_workers(1, 4), 1);
  EXPECT_EQ(repair_workers(kInlineRepairWork - 1, 4), 1);
  EXPECT_EQ(repair_workers(kInlineRepairWork, 4), 4);
  EXPECT_EQ(repair_workers(kInlineRepairWork + 1, 4), 4);
  EXPECT_EQ(repair_workers(kInlineRepairWork, 2), 2);
  // A one-thread Solver has no team to wake: one worker at any size.
  EXPECT_EQ(repair_workers(0, 1), 1);
  EXPECT_EQ(repair_workers(kInlineRepairWork, 1), 1);
  EXPECT_EQ(repair_workers(std::uint64_t{1} << 40, 1), 1);
}

TEST(IncrementalAnswer, ManySeedsRepairOnTheTeamWithTheLog) {
  // Weight drops on a quarter of a 48x48 grid's edges: no cone, so the
  // engine logs, and well over kInlineRepairWork decrease sources, so the
  // repair runs on the Solver's two workers, appending to the log
  // concurrently.
  VersionedGraph vg(gen::grid(48, 48, WeightScheme::uniform(2, 100), 31));
  const VertexId source = pick_source(vg);
  IncrementalSolver inc(test_options());
  (void)inc.solve(vg, source);
  GraphDelta drops;
  for (VertexId u = 0; u < vg.num_vertices(); u += 2) {
    for (const WEdge& e : vg.out_neighbors(u)) {
      if (e.dst > u) {
        drops.set_weight(u, e.dst, 1);
        break;
      }
    }
  }
  (void)vg.apply(drops);
  (void)inc.solve(vg, source);
  const RepairStats& rs = inc.last_repair();
  ASSERT_FALSE(rs.full_solve);
  EXPECT_EQ(rs.cone_vertices, 0u);
  EXPECT_GE(rs.seed_vertices, kInlineRepairWork);
  EXPECT_EQ(rs.workers, 2);
  EXPECT_GT(rs.lowered, 0u);
  expect_published_answer(inc, vg.graph(), source, "grid drops");
}

/// Undirected path 0-1-...-199 (weight 3) with a pendant leaf 200 on vertex
/// 195, for repairs from source 0. An eighth of its 201 vertices is 25, so
/// a change near the far end is patched and one near the source is not.
Graph comb() {
  std::vector<Edge> edges;
  for (VertexId u = 0; u + 1 < 200; ++u) edges.push_back(Edge{u, u + 1, 3});
  edges.push_back(Edge{195, 200, 3});
  return GraphBuilder().edges(201, std::move(edges)).undirected(true).build();
}

/// One thread and one bucket, so the repair's order is fixed: the seeds are
/// popped in the reverse of their journal order.
SsspOptions one_bucket_options() {
  SsspOptions options = test_options();
  options.threads = 1;
  options.delta = 1u << 20;
  return options;
}

/// Solves comb() from 0, applies `batch`, repairs, and checks the published
/// answer; returns the repair's stats.
RepairStats repair_comb(const GraphDelta& batch) {
  VersionedGraph vg(comb());
  IncrementalSolver inc(one_bucket_options());
  const auto first = inc.solve(vg, 0);
  (void)vg.apply(batch);
  (void)inc.solve(vg, 0);
  EXPECT_FALSE(inc.last_repair().full_solve);
  expect_published_answer(inc, vg.graph(), 0, "comb");
  return inc.last_repair();
}

TEST(IncrementalAnswer, ClosurePatchesAConeLeftUnreachable) {
  // Cutting 190-191 strands 191..199 and the pendant: a cone of ten that
  // no seed reaches, so only the cone patch can publish their infinities.
  GraphDelta cut;
  cut.erase(190, 191);
  const RepairStats rs = repair_comb(cut);
  EXPECT_EQ(rs.cone_vertices, 10u);
  EXPECT_EQ(rs.lowered, 0u);
  EXPECT_TRUE(rs.patched);
}

TEST(IncrementalAnswer, DecreasePatchesLoweredVerticesOutsideAnyCone) {
  GraphDelta drop;
  drop.set_weight(196, 197, 1);
  const RepairStats rs = repair_comb(drop);
  EXPECT_EQ(rs.cone_vertices, 0u);
  EXPECT_GE(rs.lowered, 3u);  // 197, 198, 199
  EXPECT_TRUE(rs.patched);
}

TEST(IncrementalAnswer, DecreasePatchesAPrunedLeaf) {
  // The pendant 200 is a leaf: 195's push lowers it and never schedules it,
  // so only a log entry written before the leaf test reaches the answer.
  GraphDelta drop;
  drop.set_weight(193, 194, 1);
  const RepairStats rs = repair_comb(drop);
  EXPECT_EQ(rs.cone_vertices, 0u);
  EXPECT_TRUE(rs.patched);
}

TEST(IncrementalAnswer, DecreasePatchesASeedLoweredByItsPull) {
  // Both ends of 190-191 are seeds, journaled 190 first, so the one bucket
  // pops 191 first. Its bidirectional-relaxation pull lowers it through the
  // cheaper arc; 190's later push finds nothing left to improve.
  GraphDelta drop;
  drop.set_weight(190, 191, 1);
  const RepairStats rs = repair_comb(drop);
  EXPECT_EQ(rs.seed_vertices, 2u);
  EXPECT_TRUE(rs.patched);
}

TEST(IncrementalAnswer, WideConeDecodesWithoutALog) {
  GraphDelta cut;
  cut.erase(10, 11);  // a cone of 190 > 25
  const RepairStats rs = repair_comb(cut);
  EXPECT_EQ(rs.cone_vertices, 190u);
  EXPECT_EQ(rs.lowered, 0u);
  EXPECT_FALSE(rs.patched);
}

TEST(IncrementalAnswer, WideLogDecodesAfterLogging) {
  GraphDelta drop;
  drop.set_weight(10, 11, 1);  // no cone, but 190 vertices lowered
  const RepairStats rs = repair_comb(drop);
  EXPECT_EQ(rs.cone_vertices, 0u);
  EXPECT_GT(rs.lowered, 25u);
  EXPECT_FALSE(rs.patched);
}

// --- VersionedGraph / GraphDelta contract ---------------------------------

Graph tiny_graph() {
  // 0-1-2-3 path plus a 0-3 chord; undirected.
  return GraphBuilder()
      .edges(4, {{0, 1, 4}, {1, 2, 3}, {2, 3, 2}, {0, 3, 20}})
      .undirected(true)
      .build();
}

TEST(IncrementalDelta, ApplyBumpsVersionAndJournalsBothArcs) {
  VersionedGraph vg(tiny_graph());
  EXPECT_EQ(vg.version(), 1u);

  GraphDelta delta;
  delta.set_weight(1, 2, 9);
  EXPECT_EQ(vg.apply(delta), 2u);
  EXPECT_FALSE(vg.dirty());  // weight-only never stages an overlay

  const auto jv = vg.journal_since(1);
  ASSERT_TRUE(jv.ok);
  ASSERT_EQ(jv.effects.size(), 2u);  // undirected: both stored arcs
  for (const ArcEffect& e : jv.effects) {
    EXPECT_EQ(e.old_w, 3u);
    EXPECT_EQ(e.new_w, 9u);
    EXPECT_TRUE(e.is_increase());
    EXPECT_FALSE(e.is_decrease());
  }
  for (const WEdge& e : vg.out_neighbors(1)) {
    if (e.dst == 2) {
      EXPECT_EQ(e.w, 9u);
    }
  }
}

TEST(IncrementalDelta, EmptyBatchIsANoOp) {
  VersionedGraph vg(tiny_graph());
  EXPECT_EQ(vg.apply(GraphDelta{}), 1u);
  const auto jv = vg.journal_since(1);
  EXPECT_TRUE(jv.ok);
  EXPECT_TRUE(jv.effects.empty());
}

TEST(IncrementalDelta, ValidationRejectsTheWholeBatchBeforeMutating) {
  VersionedGraph vg(tiny_graph());

  GraphDelta bad_range;
  bad_range.set_weight(1, 2, 7).set_weight(0, 99, 1);
  EXPECT_THROW(vg.apply(bad_range), InvalidGraphError);
  // The valid leading op must not have leaked through.
  EXPECT_EQ(vg.version(), 1u);
  for (const WEdge& e : vg.out_neighbors(1)) {
    if (e.dst == 2) {
      EXPECT_EQ(e.w, 3u);
    }
  }

  GraphDelta self_loop;
  self_loop.insert(2, 2, 1);
  EXPECT_THROW(vg.apply(self_loop), InvalidGraphError);

  GraphDelta missing;
  missing.set_weight(0, 2, 5);  // no (0, 2) edge
  EXPECT_THROW(vg.apply(missing), InvalidGraphError);

  GraphDelta gone;
  gone.erase(0, 2);
  EXPECT_THROW(vg.apply(gone), InvalidGraphError);

  // Erasing an edge staged by the same batch's insert is legal (validation
  // tracks the batch's own structural changes)...
  GraphDelta insert_then_erase;
  insert_then_erase.insert(0, 2, 5).erase(0, 2);
  EXPECT_EQ(vg.apply(insert_then_erase), 2u);
  // ...but touching an edge the batch already erased is not.
  GraphDelta erase_then_touch;
  erase_then_touch.erase(0, 1).set_weight(0, 1, 9);
  EXPECT_THROW(vg.apply(erase_then_touch), InvalidGraphError);
  EXPECT_EQ(vg.version(), 2u);
}

TEST(IncrementalDelta, StructuralOverlayCompactsOnDemand) {
  VersionedGraph vg(tiny_graph());
  const EdgeIndex base_edges = vg.num_edges();

  // A genuinely new arc stages in the overlay and compacts on demand.
  GraphDelta add;
  add.insert(0, 2, 6);
  (void)vg.apply(add);
  EXPECT_TRUE(vg.dirty());
  EXPECT_EQ(vg.num_edges(), base_edges + 2);  // both stored arcs
  bool found = false;
  for (const WEdge& e : vg.out_neighbors(0))
    if (e.dst == 2 && e.w == 6) found = true;
  EXPECT_TRUE(found);

  EXPECT_EQ(vg.compactions(), 0u);
  const Graph& flat = vg.graph();  // compacts
  EXPECT_FALSE(vg.dirty());
  EXPECT_EQ(vg.compactions(), 1u);
  EXPECT_EQ(flat.num_edges(), base_edges + 2);

  // Closing it leaves both arcs dead in their slots, hidden from the view.
  // 2 dead of 10 stored arcs pass the 1-in-kDeadShare cap, so the graph is
  // dirty again and the next graph() purges them.
  GraphDelta remove;
  remove.erase(0, 2);
  (void)vg.apply(remove);
  EXPECT_EQ(vg.num_edges(), base_edges);
  EXPECT_EQ(vg.dead_arcs(), 2u);
  for (const WEdge& e : vg.out_neighbors(0)) EXPECT_NE(e.dst, 2u);
  EXPECT_TRUE(vg.dirty());
  EXPECT_EQ(vg.graph().num_edges(), base_edges);
  EXPECT_EQ(vg.compactions(), 2u);
  EXPECT_EQ(vg.dead_arcs(), 0u);
}

/// The CSR compact() must produce: every out_neighbors() run laid end to
/// end, built through GraphBuilder like any other producer.
Graph rebuilt_csr(const VersionedGraph& vg) {
  const VertexId n = vg.num_vertices();
  std::vector<EdgeIndex> offsets(static_cast<std::size_t>(n) + 1, 0);
  AdjacencyVector adjacency;
  for (VertexId u = 0; u < n; ++u) {
    const std::span<const WEdge> list = vg.out_neighbors(u);
    adjacency.insert(adjacency.end(), list.begin(), list.end());
    offsets[u + 1] = adjacency.size();
  }
  return GraphBuilder()
      .csr(std::move(offsets), std::move(adjacency))
      .undirected(vg.is_undirected())
      .build();
}

/// Compacts `vg` and checks the in-place splice against the rebuild of the
/// view taken just before it: overlaid runs folded in, dead arcs dropped.
void expect_splice_equals_rebuild(VersionedGraph& vg, const std::string& what) {
  ASSERT_TRUE(vg.dirty() || vg.dead_arcs() > 0) << what;
  const Graph want = rebuilt_csr(vg);
  vg.compact();
  ASSERT_FALSE(vg.dirty()) << what;
  EXPECT_EQ(vg.dead_arcs(), 0u) << what;
  const Graph& got = vg.flat();
  EXPECT_EQ(got.offsets(), want.offsets()) << what;
  EXPECT_TRUE(got.adjacency() == want.adjacency()) << what;
  EXPECT_EQ(got.num_edges(), vg.num_edges()) << what;
}

/// Degrees cycle through 0..4 (so some runs start empty); endpoints are
/// random. Undirected graphs leave every fifth vertex isolated instead.
Graph splice_graph(bool undirected, std::uint64_t seed) {
  constexpr VertexId kN = 60;
  Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  for (VertexId u = 0; u < kN; ++u) {
    if (undirected && u % 5 == 3) continue;
    for (VertexId k = 0; k < u % 5; ++k) {
      const auto v = static_cast<VertexId>(rng.next_below(kN));
      if (v == u || (undirected && v % 5 == 3)) continue;
      edges.push_back({u, v, static_cast<Weight>(1 + rng.next_below(50))});
    }
  }
  return GraphBuilder()
      .edges(kN, std::move(edges))
      .undirected(undirected)
      .build();
}

/// Erases every distinct (u, *) edge in one batch.
GraphDelta erase_all_out(const VersionedGraph& vg, VertexId u) {
  GraphDelta delta;
  std::set<VertexId> seen;
  for (const WEdge& e : vg.out_neighbors(u))
    if (seen.insert(e.dst).second) delta.erase(u, e.dst);
  return delta;
}

TEST(IncrementalDelta, InPlaceCompactionEqualsTheRebuild) {
  for (const bool undirected : {false, true}) {
    for (const std::uint64_t seed : {3u, 5u, 8u}) {
      SCOPED_TRACE((undirected ? "undirected seed " : "directed seed ") +
                   std::to_string(seed));
      VersionedGraph vg(splice_graph(undirected, seed));
      const VertexId n = vg.num_vertices();
      Xoshiro256 rng(seed * 7919);
      const auto weight = [&] {
        return static_cast<Weight>(1 + rng.next_below(50));
      };
      const auto other_than = [&](VertexId u) {
        return static_cast<VertexId>((u + 1 + rng.next_below(n - 1)) % n);
      };

      // Touched vertices 0 and n - 1 (the first run and the last segment).
      GraphDelta ends;
      ends.insert(0, n - 1, weight()).insert(n - 1, 0, weight());
      (void)vg.apply(ends);
      expect_splice_equals_rebuild(vg, "ends");

      // Runs that become empty: the lowest and the highest vertex with arcs.
      VertexId low = 0;
      while (vg.out_neighbors(low).empty()) ++low;
      VertexId high = n - 1;
      while (vg.out_neighbors(high).empty()) --high;
      (void)vg.apply(erase_all_out(vg, low));
      (void)vg.apply(erase_all_out(vg, high));
      expect_splice_equals_rebuild(vg, "emptied runs");
      EXPECT_TRUE(vg.out_neighbors(low).empty());
      EXPECT_TRUE(vg.out_neighbors(high).empty());

      // Runs that start empty gain arcs.
      GraphDelta fill;
      int filled = 0;
      for (VertexId u = 0; u < n; ++u) {
        if (!vg.out_neighbors(u).empty()) continue;
        fill.insert(u, other_than(u), weight());
        ++filled;
      }
      ASSERT_GE(filled, 3);
      (void)vg.apply(fill);
      expect_splice_equals_rebuild(vg, "filled runs");

      // Net growth past the adjacency's capacity.
      const std::size_t capacity = vg.flat().adjacency().capacity();
      const std::size_t arcs_per_insert = undirected ? 2 : 1;
      GraphDelta grow;
      const std::size_t inserts =
          (capacity - vg.num_edges()) / arcs_per_insert + 5;
      for (std::size_t i = 0; i < inserts; ++i) {
        const auto u = static_cast<VertexId>(rng.next_below(n));
        grow.insert(u, other_than(u), weight());
      }
      (void)vg.apply(grow);
      ASSERT_GT(vg.num_edges(), capacity);
      expect_splice_equals_rebuild(vg, "growth past capacity");

      // Net shrink: erase about half of the logical edges.
      const EdgeIndex before_shrink = vg.num_edges();
      GraphDelta shrink;
      std::set<std::pair<VertexId, VertexId>> erased;
      for (VertexId u = 0; u < n; ++u) {
        for (const WEdge& e : vg.out_neighbors(u)) {
          if (rng.next_below(2) == 0) continue;
          if (erased.insert(edge_key(vg, u, e.dst)).second)
            shrink.erase(u, e.dst);
        }
      }
      (void)vg.apply(shrink);
      ASSERT_LT(vg.num_edges(), before_shrink);
      expect_splice_equals_rebuild(vg, "net shrink");

      // Many touched vertices with mixed-sign shifts, sometimes several
      // batches folded by one compaction.
      for (int round = 0; round < 30; ++round) {
        const int batches = 1 + static_cast<int>(rng.next_below(3));
        for (int b = 0; b < batches; ++b) {
          const int ops = 2 + static_cast<int>(rng.next_below(16));
          const GraphDelta delta =
              random_batch(vg, Mode::kStructural, rng, ops);
          if (!delta.empty()) (void)vg.apply(delta);
        }
        if (!vg.dirty() && vg.dead_arcs() == 0) continue;
        expect_splice_equals_rebuild(vg, "round " + std::to_string(round));
      }
    }
  }
}

TEST(IncrementalDelta, CompactionWorkCountsOnlyTheSplicedTail) {
  // Directed, so a batch on one arc touches exactly one row.
  VersionedGraph vg(
      gen::rmat(12, 40000, 0.57, 0.19, 0.19, WeightScheme::uniform(1, 100), 29,
                /*undirected=*/false));
  const VertexId n = vg.num_vertices();
  EXPECT_EQ(vg.compacted_arcs(), 0u);

  GraphDelta near_end;
  near_end.insert(n - 2, 0, 7);
  (void)vg.apply(near_end);
  const std::uint64_t expected = vg.out_neighbors(n - 2).size() +  // written
                                 vg.out_neighbors(n - 1).size();   // moved
  vg.compact();
  EXPECT_EQ(vg.compacted_arcs(), expected);
  EXPECT_LT(vg.compacted_arcs() * 100, vg.num_edges());

  // Closing the arc again writes its slot in place: no compaction.
  GraphDelta undo;
  undo.erase(n - 2, 0);
  (void)vg.apply(undo);
  EXPECT_FALSE(vg.dirty());
  EXPECT_EQ(vg.dead_arcs(), 1u);
  (void)vg.graph();
  EXPECT_EQ(vg.compactions(), 1u);
  EXPECT_EQ(vg.compacted_arcs(), expected);

  // An explicit compact() purges it: the row is rewritten and the same
  // tail slides back, so the count accumulates.
  const std::uint64_t purged = vg.out_neighbors(n - 2).size() +
                               vg.out_neighbors(n - 1).size();
  vg.compact();
  EXPECT_EQ(vg.dead_arcs(), 0u);
  EXPECT_EQ(vg.compacted_arcs(), expected + purged);
  EXPECT_EQ(vg.compactions(), 2u);
}

// --- dead arcs: closures and reopenings stay in their CSR slots ----------

/// An arc of the grid shape's view, away from the grid's border rows.
ArcSample grid_arc(const VersionedGraph& vg) {
  const VertexId u = 30;
  return {u, vg.out_neighbors(u)[0]};
}

TEST(IncrementalDelta, ClosedArcRejectsSetWeightAndASecondErase) {
  VersionedGraph vg(make_shape("grid"));
  const ArcSample a = grid_arc(vg);
  GraphDelta close;
  close.erase(a.u, a.e.dst);
  (void)vg.apply(close);

  GraphDelta touch;
  touch.set_weight(a.u, a.e.dst, 5);
  EXPECT_THROW(vg.apply(touch), InvalidGraphError);
  GraphDelta mirror;  // undirected: the mirror arc closed with it
  mirror.set_weight(a.e.dst, a.u, 5);
  EXPECT_THROW(vg.apply(mirror), InvalidGraphError);
  GraphDelta again;
  again.erase(a.u, a.e.dst);
  EXPECT_THROW(vg.apply(again), InvalidGraphError);
  EXPECT_EQ(vg.version(), 2u);
  EXPECT_EQ(vg.dead_arcs(), 2u);
}

TEST(IncrementalDelta, CloseAndReopenStayInPlace) {
  VersionedGraph vg(make_shape("grid"));
  const EdgeIndex stored = vg.num_edges();
  const ArcSample a = grid_arc(vg);
  const std::uint64_t stamp0 = vg.graph().stamp();

  GraphDelta close;
  close.erase(a.u, a.e.dst);
  (void)vg.apply(close);
  EXPECT_FALSE(vg.dirty());
  EXPECT_EQ(vg.dead_arcs(), 2u);
  EXPECT_EQ(vg.num_edges(), stored - 2);
  for (const WEdge& e : vg.out_neighbors(a.u)) EXPECT_NE(e.dst, a.e.dst);
  const Graph& flat = vg.graph();
  EXPECT_EQ(flat.num_edges(), stored);  // the slots stay
  EXPECT_NE(flat.stamp(), stamp0);
  // The dead arc trails the row's live arcs.
  const std::span<const WEdge> row = flat.out_neighbors(a.u);
  EXPECT_EQ(row.back(), (WEdge{a.e.dst, kDeadWeight}));
  const auto closed = vg.journal_since(1);
  ASSERT_TRUE(closed.ok);
  ASSERT_EQ(closed.effects.size(), 2u);
  for (const ArcEffect& e : closed.effects) {
    EXPECT_EQ(e.old_w, a.e.w);
    EXPECT_TRUE(e.is_increase());
  }

  const std::uint64_t stamp1 = flat.stamp();
  GraphDelta reopen;
  reopen.insert(a.u, a.e.dst, a.e.w + 7);
  (void)vg.apply(reopen);
  EXPECT_FALSE(vg.dirty());
  EXPECT_EQ(vg.dead_arcs(), 0u);
  EXPECT_EQ(vg.num_edges(), stored);
  EXPECT_NE(vg.graph().stamp(), stamp1);
  const auto reopened = vg.journal_since(2);
  ASSERT_TRUE(reopened.ok);
  ASSERT_EQ(reopened.effects.size(), 2u);
  for (const ArcEffect& e : reopened.effects) {
    EXPECT_EQ(e.new_w, a.e.w + 7);
    EXPECT_TRUE(e.is_decrease());
  }

  EXPECT_EQ(vg.compactions(), 0u);
  EXPECT_EQ(vg.compacted_arcs(), 0u);
  // Reopened at its sorted position: the CSR is what a rebuild gives.
  const Graph want = rebuilt_csr(vg);
  EXPECT_EQ(vg.flat().offsets(), want.offsets());
  EXPECT_TRUE(vg.flat().adjacency() == want.adjacency());
}

TEST(IncrementalDelta, NewArcCompactionPurgesDeadArcs) {
  VersionedGraph vg(make_shape("grid"));
  const EdgeIndex stored = vg.num_edges();
  const ArcSample a = grid_arc(vg);
  GraphDelta close;
  close.erase(a.u, a.e.dst);
  (void)vg.apply(close);
  GraphDelta fresh;  // no (0, n - 1) slot exists: this one stages
  fresh.insert(0, vg.num_vertices() - 1, 9);
  (void)vg.apply(fresh);
  EXPECT_TRUE(vg.dirty());

  const Graph want = rebuilt_csr(vg);
  const Graph& got = vg.graph();
  EXPECT_EQ(vg.compactions(), 1u);
  EXPECT_EQ(vg.dead_arcs(), 0u);
  EXPECT_EQ(got.num_edges(), stored);  // 2 dead out, 2 new in
  EXPECT_EQ(got.offsets(), want.offsets());
  EXPECT_TRUE(got.adjacency() == want.adjacency());
}

TEST(IncrementalDelta, DeadShareCapCompacts) {
  VersionedGraph vg(make_shape("grid"));
  const EdgeIndex stored = vg.num_edges();
  const auto over_cap = [&] {
    return vg.dead_arcs() * VersionedGraph::kDeadShare > stored;
  };
  // Close one edge a batch, lowest vertex first, until the cap is passed.
  VertexId u = 0;
  while (!over_cap()) {
    ASSERT_FALSE(vg.dirty());
    while (vg.out_neighbors(u).empty()) ++u;
    GraphDelta close;
    close.erase(u, vg.out_neighbors(u)[0].dst);
    (void)vg.apply(close);
  }
  EXPECT_TRUE(vg.dirty());
  EXPECT_EQ(vg.compactions(), 0u);
  const Graph want = rebuilt_csr(vg);
  const Graph& got = vg.graph();
  EXPECT_EQ(vg.compactions(), 1u);
  EXPECT_FALSE(vg.dirty());
  EXPECT_EQ(vg.dead_arcs(), 0u);
  EXPECT_EQ(got.offsets(), want.offsets());
  EXPECT_TRUE(got.adjacency() == want.adjacency());
}

TEST(IncrementalDelta, DirectedCloseReopenRepairsMatchAColdSolve) {
  // Directed, so each repair takes the cached-transpose boundary pass; the
  // transpose is built once and must stay a superset of the live in-arcs.
  VersionedGraph vg(make_shape("rmat_dir"));
  const VertexId source = pick_source(vg);
  IncrementalSolver inc(test_options());
  (void)inc.solve(vg, source);
  Solver cold(test_options());

  Xoshiro256 rng(0xDEADA2CULL);
  std::deque<ArcSample> closed;
  int repairs = 0;
  const int batches = 12;
  for (int b = 0; b < batches; ++b) {
    GraphDelta delta;
    std::set<std::pair<VertexId, VertexId>> used;
    for (int k = 0; k < 3; ++k) {
      ArcSample s;
      if (!sample_arc(vg, rng, &s) || !used.insert({s.u, s.e.dst}).second)
        continue;
      delta.erase(s.u, s.e.dst);
      closed.push_back(s);
    }
    // Reopen the oldest closures, alternately at their old weight and a
    // new one.
    while (closed.size() > 6) {
      const ArcSample a = closed.front();
      closed.pop_front();
      const Weight w =
          b % 2 == 0 ? a.e.w : static_cast<Weight>(1 + rng.next_below(100));
      delta.insert(a.u, a.e.dst, w);
    }
    (void)vg.apply(delta);
    const std::vector<Distance>& repaired = inc.solve(vg, source);
    if (!inc.last_repair().full_solve) ++repairs;
    ASSERT_EQ(cold.solve(rebuilt_csr(vg), source).dist, repaired)
        << "batch " << b;
  }
  EXPECT_EQ(repairs, batches);
  EXPECT_EQ(vg.compactions(), 0u);
  EXPECT_GT(vg.dead_arcs(), 0u);
}

TEST(IncrementalDelta, JournalTrimRaisesTheFloor) {
  VersionedGraph vg(tiny_graph());
  vg.set_journal_limit(2);  // roughly one undirected weight change
  for (int i = 0; i < 3; ++i) {
    GraphDelta d;
    d.set_weight(1, 2, static_cast<Weight>(5 + i));
    (void)vg.apply(d);
  }
  EXPECT_EQ(vg.version(), 4u);
  EXPECT_GT(vg.journal_floor(), 1u);
  EXPECT_FALSE(vg.journal_since(1).ok);
  EXPECT_TRUE(vg.journal_since(vg.version()).ok);
  EXPECT_FALSE(vg.journal_since(vg.version() + 1).ok);
}

// --- warm-state fallback paths --------------------------------------------

TEST(IncrementalWarm, UnchangedVersionIsServedWithoutResolving) {
  VersionedGraph vg(make_shape("er"));
  IncrementalSolver inc(test_options());
  const std::vector<Distance> first = inc.solve(vg, 3);
  EXPECT_TRUE(inc.last_repair().full_solve);

  const std::vector<Distance>& again = inc.solve(vg, 3);
  EXPECT_FALSE(inc.last_repair().full_solve);
  EXPECT_EQ(inc.last_repair().batches, 0u);
  EXPECT_EQ(first, again);
}

TEST(IncrementalWarm, SourceChangeFallsBackToFullSolve) {
  VersionedGraph vg(make_shape("er"));
  IncrementalSolver inc(test_options());
  (void)inc.solve(vg, 3);
  const std::vector<Distance>& other = inc.solve(vg, 7);
  EXPECT_TRUE(inc.last_repair().full_solve);
  EXPECT_EQ(dijkstra(vg.graph(), 7).dist, other);
}

TEST(IncrementalWarm, JournalTrimForcesFullSolve) {
  VersionedGraph vg(make_shape("grid"));
  vg.set_journal_limit(0);  // every batch is immediately unreachable
  IncrementalSolver inc(test_options());
  const VertexId source = pick_source(vg);
  (void)inc.solve(vg, source);

  GraphDelta d;
  d.set_weight(0, 1, 77);
  (void)vg.apply(d);
  const std::vector<Distance>& dist = inc.solve(vg, source);
  EXPECT_TRUE(inc.last_repair().full_solve);
  EXPECT_EQ(dijkstra(vg.graph(), source).dist, dist);
}

/// Jams `src`'s arc to `dst` and checks the repair from `src`: exact, and
/// seeded from `src` alone with a cone of `cone` vertices.
void expect_jam_seeds_only_source(Graph graph, VertexId src, VertexId dst,
                                  std::uint64_t cone) {
  VersionedGraph vg(std::move(graph));
  IncrementalSolver inc(test_options());
  (void)inc.solve(vg, src);
  GraphDelta jam;
  jam.set_weight(src, dst, 50);
  (void)vg.apply(jam);
  const std::vector<Distance>& dist = inc.solve(vg, src);
  EXPECT_FALSE(inc.last_repair().full_solve);
  EXPECT_EQ(inc.last_repair().cone_vertices, cone);
  EXPECT_EQ(inc.last_repair().seed_vertices, 1u);
  EXPECT_EQ(dijkstra(vg.graph(), src).dist, dist);
}

TEST(IncrementalWarm, JamOnTheSourceOutArcSeedsOnlyTheSource) {
  // Undirected path 0-1-...-n-1 from source 0. Jamming arc 0-1 puts every
  // other vertex in the cone, so the one intact vertex next to the cone is
  // the source: the walk, which never admits the source, must seed it.
  constexpr VertexId kN = 200;
  std::vector<Edge> path;
  for (VertexId u = 0; u + 1 < kN; ++u) path.push_back(Edge{u, u + 1, 3});
  expect_jam_seeds_only_source(
      GraphBuilder().edges(kN, std::move(path)).undirected(true).build(), 0,
      1, kN - 1);

  // Diamond 0-1, 1-2, 2-3 (weight 1) and 1-3 (weight 5). The walk from 1
  // sees 3 first over the heavy arc, where it is not admissible, so 3
  // becomes a candidate seed; the walk from 2 then admits it. The dropped
  // candidate must leave the source as the only seed.
  expect_jam_seeds_only_source(
      GraphBuilder()
          .edges(4, {{0, 1, 1}, {1, 2, 1}, {1, 3, 5}, {2, 3, 1}})
          .undirected(true)
          .build(),
      0, 1, 3);
}

TEST(IncrementalWarm, ForeignSolverUseColdsTheWarmState) {
  VersionedGraph vg(make_shape("er"));
  IncrementalSolver inc(test_options());
  const VertexId source = pick_source(vg);
  (void)inc.solve(vg, source);

  // Using the owned Solver directly bumps the pool epoch: the warm contract
  // is broken and the next solve must detect it instead of repairing on top
  // of someone else's distances.
  Graph other = make_shape("grid");
  (void)inc.solver().solve(other, 0);

  Xoshiro256 rng(5);
  GraphDelta batch;
  while (batch.empty()) batch = random_batch(vg, Mode::kMixed, rng, 4);
  (void)vg.apply(batch);

  const std::vector<Distance>& dist = inc.solve(vg, source);
  EXPECT_TRUE(inc.last_repair().full_solve);
  EXPECT_EQ(dijkstra(vg.graph(), source).dist, dist);
}

TEST(IncrementalWarm, CancelledRepairThrowsAndLeavesSolverReusable) {
  VersionedGraph vg(make_shape("er"));
  IncrementalSolver inc(test_options());
  const VertexId source = pick_source(vg);
  (void)inc.solve(vg, source);

  Xoshiro256 rng(9);
  (void)vg.apply(random_batch(vg, Mode::kMixed, rng, 8));

  CancelToken token;
  token.request_cancel(CancelReason::kUser);
  inc.options().cancel = &token;
  EXPECT_THROW((void)inc.solve(vg, source), SolveCancelledError);

  inc.options().cancel = nullptr;
  const std::vector<Distance>& dist = inc.solve(vg, source);
  EXPECT_TRUE(inc.last_repair().full_solve);  // warm state was discarded
  EXPECT_EQ(dijkstra(vg.graph(), source).dist, dist);
}

TEST(IncrementalWarm, UidIsProcessUniqueAndMoveAware) {
  VersionedGraph a(make_shape("grid"));
  VersionedGraph b(make_shape("grid"));
  EXPECT_NE(a.uid(), b.uid());
  const std::uint64_t a_uid = a.uid();
  VersionedGraph c = std::move(a);
  EXPECT_EQ(c.uid(), a_uid);  // identity travels with the content
  EXPECT_NE(a.uid(), a_uid);  // the moved-from husk is re-stamped
  EXPECT_NE(a.uid(), c.uid());
}

TEST(IncrementalWarm, GraphRebuiltAtSameAddressFallsBackToFullSolve) {
  VersionedGraph vg(make_shape("er"));
  IncrementalSolver inc(test_options());
  const VertexId source = pick_source(vg);
  (void)inc.solve(vg, source);

  // Allocator-reuse ABA: a *different* graph takes over the bound object's
  // address (move-assignment re-stamps vg in place) with the same vertex
  // count, an untouched pool epoch, and a version no older than the bound
  // one — everything an address + version heuristic would mistake for warm
  // state. Only the uid tells them apart.
  VersionedGraph other(
      gen::erdos_renyi(1600, 6.0, WeightScheme::uniform(1, 100), 99));
  Xoshiro256 rng(5);
  (void)other.apply(random_batch(other, Mode::kMixed, rng, 6));
  ASSERT_GE(other.version(), vg.version());
  vg = std::move(other);

  const std::vector<Distance>& dist = inc.solve(vg, source);
  EXPECT_TRUE(inc.last_repair().full_solve);  // uid mismatch forces cold
  EXPECT_EQ(dijkstra(vg.graph(), source).dist, dist);
}

// --- QueryService update gate: concurrent update-vs-query ------------------

service::ServiceConfig service_config() {
  service::ServiceConfig cfg;
  cfg.solver = test_options();
  cfg.num_solvers = 2;
  cfg.queue_capacity = 32;
  cfg.stale_cache_entries = 8;
  return cfg;
}

TEST(IncrementalService, ConcurrentUpdatesAndQueriesStayVersionConsistent) {
  VersionedGraph vg(
      gen::erdos_renyi(1200, 5.0, WeightScheme::uniform(1, 64), 41));
  service::QueryService svc(service_config());

  const std::vector<VertexId> sources = {3, 57, 211};
  // Reference distances per (version, source), computed by the updater
  // thread while it alone may mutate the graph (queries only read).
  std::map<std::pair<std::uint64_t, VertexId>, std::vector<Distance>> refs;
  for (const VertexId s : sources)
    refs[{vg.version(), s}] = dijkstra(vg.graph(), s).dist;

  std::thread updater([&] {
    Xoshiro256 rng(77);
    for (int k = 0; k < 5; ++k) {
      const GraphDelta delta = random_batch(vg, Mode::kMixed, rng, 10);
      if (delta.empty()) continue;
      const std::uint64_t v = svc.update(vg, delta);
      for (const VertexId s : sources)
        refs[{v, s}] = dijkstra(vg.graph(), s).dist;
    }
  });

  struct Observed {
    VertexId source;
    service::QueryResult result;
  };
  std::vector<std::vector<Observed>> observed(2);
  std::vector<std::thread> clients;
  for (int t = 0; t < 2; ++t) {
    clients.emplace_back([&, t] {
      for (int q = 0; q < 12; ++q) {
        const VertexId s = sources[static_cast<std::size_t>(q + t) %
                                   sources.size()];
        observed[static_cast<std::size_t>(t)].push_back(
            {s, svc.solve(vg, {.source = s})});
      }
    });
  }
  for (std::thread& c : clients) c.join();
  updater.join();
  svc.shutdown();

  // Every served answer must be exactly the reference of the version it
  // claims to reflect — the update gate guarantees no run straddles a batch.
  int served = 0;
  for (const auto& per_thread : observed) {
    for (const Observed& o : per_thread) {
      ASSERT_EQ(o.result.outcome, service::Outcome::kServed);
      ++served;
      const auto it = refs.find({o.result.graph_version, o.source});
      ASSERT_NE(it, refs.end())
          << "answer at unknown version " << o.result.graph_version;
      EXPECT_EQ(it->second, o.result.dist)
          << "source " << o.source << " version " << o.result.graph_version;
    }
  }
  EXPECT_EQ(served, 24);
}

TEST(IncrementalService, MinGraphVersionGatesSubmitsAndStampsResults) {
  VersionedGraph vg(
      gen::erdos_renyi(800, 5.0, WeightScheme::uniform(1, 64), 43));
  service::QueryService svc(service_config());

  EXPECT_THROW(
      (void)svc.submit(vg, {.source = 1, .min_graph_version = vg.version() + 5}),
      InvalidOptionsError);

  const service::QueryResult r =
      svc.solve(vg, {.source = 1, .min_graph_version = vg.version()});
  ASSERT_EQ(r.outcome, service::Outcome::kServed);
  EXPECT_GE(r.graph_version, vg.version());
  EXPECT_EQ(dijkstra(vg.graph(), 1).dist, r.dist);
}

TEST(IncrementalService, UpdateRepairsCachedAnswersInsteadOfDroppingThem) {
  VersionedGraph vg(
      gen::erdos_renyi(1000, 5.0, WeightScheme::uniform(1, 64), 47));
  service::QueryService svc(service_config());

  // Seed the stale cache with a served answer at version 1.
  ASSERT_EQ(svc.solve(vg, {.source = 5}).outcome, service::Outcome::kServed);

  Xoshiro256 rng(51);
  // First update: the service repairer full-solves the cached entry to bind
  // its warm state; second update repairs the bound entry incrementally.
  (void)svc.update(vg, random_batch(vg, Mode::kMixed, rng, 8));
  (void)svc.update(vg, random_batch(vg, Mode::kMixed, rng, 8));
  EXPECT_GE(svc.metrics().counter(obs::CounterId::kRepairBatches), 1u);

  // A structural batch through the service compacts inside the gate.
  (void)svc.update(vg, random_batch(vg, Mode::kStructural, rng, 6));
  EXPECT_GE(svc.metrics().counter(obs::CounterId::kGraphCompactions), 1u);
  EXPECT_GE(svc.metrics().counter(obs::CounterId::kGraphCompactedArcs), 1u);

  const service::QueryResult fresh = svc.solve(vg, {.source = 5});
  ASSERT_EQ(fresh.outcome, service::Outcome::kServed);
  EXPECT_EQ(fresh.graph_version, vg.version());
  EXPECT_EQ(dijkstra(vg.graph(), 5).dist, fresh.dist);
}

TEST(IncrementalService, ExactlyCurrentCacheHitSkipsTheSolve) {
  VersionedGraph vg(
      gen::erdos_renyi(1000, 5.0, WeightScheme::uniform(1, 64), 53));
  service::QueryService svc(service_config());
  ASSERT_EQ(svc.solve(vg, {.source = 9}).attempts, 1);

  // update() repairs the cached answer and republishes it at the new
  // version, so the re-query is that answer: no queue, no solve.
  Xoshiro256 rng(57);
  const std::uint64_t v = svc.update(vg, random_batch(vg, Mode::kMixed, rng, 8));
  const std::uint64_t cached_before =
      svc.metrics().counter(obs::CounterId::kQueriesServedCached);
  const service::QueryResult r =
      svc.solve(vg, {.source = 9, .min_graph_version = v});
  ASSERT_EQ(r.outcome, service::Outcome::kServed);
  EXPECT_EQ(r.attempts, 0);
  EXPECT_EQ(r.queue_ms, 0.0);
  EXPECT_EQ(r.solve_ms, 0.0);
  EXPECT_EQ(r.graph_version, vg.version());
  EXPECT_EQ(dijkstra(vg.graph(), 9).dist, r.dist);
  const obs::MetricsSnapshot m = svc.metrics();
  EXPECT_EQ(m.counter(obs::CounterId::kQueriesServedCached), cached_before + 1);
  // A subset of served, not a seventh outcome.
  EXPECT_EQ(m.counter(obs::CounterId::kQueriesServed),
            m.counter(obs::CounterId::kQueriesSubmitted));
}

TEST(IncrementalService, QueryQueuedBehindAnUpdateIsServedAtPickup) {
  // One worker is held inside a solve until an update() is about to take
  // the gate; a query queued behind both is picked up only after that
  // update republished its source's answer, so it takes the fresh path at
  // pickup. The hold is a timed margin, so allow a few rounds for a host
  // that stalls the updater past it.
  bool served_at_pickup = false;
  for (int round = 0; round < 3 && !served_at_pickup; ++round) {
    VersionedGraph vg(
        gen::erdos_renyi(1000, 5.0, WeightScheme::uniform(1, 64), 73));
    std::atomic<bool> hold{false};
    std::atomic<bool> updating{false};
    service::ServiceConfig cfg = service_config();
    cfg.num_solvers = 1;
    cfg.inject_failure = [&](int) {
      if (!hold.exchange(false)) return;
      while (!updating.load()) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    };
    service::QueryService svc(cfg);
    ASSERT_EQ(svc.solve(vg, {.source = 9}).outcome, service::Outcome::kServed);
    // Put the cached answer one version behind, so the submit below misses
    // and queues.
    Xoshiro256 rng(79);
    (void)vg.apply(random_batch(vg, Mode::kDecrease, rng, 20));
    const GraphDelta batch = random_batch(vg, Mode::kMixed, rng, 8);
    const std::uint64_t before = vg.version();
    const std::vector<Distance> ref_before = dijkstra(vg.graph(), 9).dist;

    hold = true;
    const auto held = svc.submit(vg, {.source = 10});
    const auto queued = svc.submit(vg, {.source = 9});
    std::uint64_t v = 0;
    std::thread updater([&] {
      updating = true;
      v = svc.update(vg, batch);
    });
    const service::QueryResult r = queued.get();
    updater.join();
    ASSERT_EQ(held.get().outcome, service::Outcome::kServed);
    ASSERT_EQ(r.outcome, service::Outcome::kServed);
    if (r.graph_version == before) {
      EXPECT_EQ(ref_before, r.dist);
    } else {
      EXPECT_EQ(r.graph_version, v);
      EXPECT_EQ(dijkstra(vg.graph(), 9).dist, r.dist);
    }
    served_at_pickup = r.attempts == 0;
    if (served_at_pickup) {
      EXPECT_EQ(r.graph_version, v);
      EXPECT_GT(r.queue_ms, 0.0);
      EXPECT_EQ(r.solve_ms, 0.0);
      EXPECT_EQ(
          svc.metrics().counter(obs::CounterId::kQueriesServedCached), 1u);
    }
  }
  EXPECT_TRUE(served_at_pickup);
}

TEST(IncrementalService, EntryOneVersionBehindIsResolved) {
  VersionedGraph vg(
      gen::erdos_renyi(1000, 5.0, WeightScheme::uniform(1, 64), 59));
  service::QueryService svc(service_config());
  ASSERT_EQ(svc.solve(vg, {.source = 9}).outcome, service::Outcome::kServed);

  // Nothing is in flight, so the graph may be mutated directly; a
  // weight-only batch keeps flat() clean. The cached entry is now one
  // version behind and must not be served as fresh.
  Xoshiro256 rng(61);
  GraphDelta batch;
  while (batch.empty()) batch = random_batch(vg, Mode::kDecrease, rng, 40);
  const std::uint64_t v = vg.apply(batch);
  ASSERT_FALSE(vg.dirty());

  const service::QueryResult r =
      svc.solve(vg, {.source = 9, .min_graph_version = v});
  ASSERT_EQ(r.outcome, service::Outcome::kServed);
  EXPECT_GE(r.attempts, 1);
  EXPECT_EQ(r.graph_version, v);
  EXPECT_EQ(dijkstra(vg.graph(), 9).dist, r.dist);
  EXPECT_EQ(svc.metrics().counter(obs::CounterId::kQueriesServedCached), 0u);
}

TEST(IncrementalService, GraphRebuiltAtSameAddressMissesTheCache) {
  VersionedGraph vg(
      gen::erdos_renyi(1000, 5.0, WeightScheme::uniform(1, 64), 67));
  service::QueryService svc(service_config());
  ASSERT_EQ(svc.solve(vg, {.source = 9}).outcome, service::Outcome::kServed);

  // Allocator-reuse ABA: a different graph takes over vg's address with the
  // same vertex count and the same version. Only the uid tells them apart.
  VersionedGraph other(
      gen::erdos_renyi(1000, 5.0, WeightScheme::uniform(1, 64), 71));
  ASSERT_EQ(other.version(), vg.version());
  vg = std::move(other);

  const service::QueryResult r = svc.solve(vg, {.source = 9});
  ASSERT_EQ(r.outcome, service::Outcome::kServed);
  EXPECT_GE(r.attempts, 1);
  EXPECT_EQ(dijkstra(vg.graph(), 9).dist, r.dist);
  EXPECT_EQ(svc.metrics().counter(obs::CounterId::kQueriesServedCached), 0u);
}

}  // namespace
}  // namespace wasp
