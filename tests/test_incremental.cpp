// Incremental SSSP repair over versioned graphs (graph/delta.hpp +
// sssp/incremental.hpp). The correctness anchor, bit-identical distances vs
// a from-scratch solve after every batch of every stream kind, is the
// delta-stream axis of test_differential.cpp. This file pins the published
// answers (repaired in a working buffer that is patched from the previous
// change set or copied, never rewritten while held, recycled once
// released), the re-priced
// repair cone (its work, nested heads, the zero-weight fallback and the
// cone's own seeds), the VersionedGraph contract
// (atomic validation, journal semantics, compaction on demand), the answer
// a repair is handed (warm, loaded, or one of the two full-solve
// fallbacks), and the QueryService update gate: K cached sources each
// repaired from their own entry, concurrent
// update-vs-query streams where every served answer must match the
// reference distances of exactly the graph version it reports, and the
// fresh cache path (an entry is served without a solve only at exactly the
// graph's current uid and version).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
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
#include "support/timer.hpp"

namespace wasp {
namespace {

using CId = obs::CounterId;

SsspOptions test_options() {
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 2;
  options.delta = 16;
  return options;
}

/// Undirected grid, chains and Erdős–Rényi plus a directed R-MAT (which
/// exercises the boundary pass over the graph's in-arc index), small enough
/// for a per-batch Dijkstra cross-check under TSan.
Graph make_shape(const std::string& name) {
  const WeightScheme ws = WeightScheme::uniform(1, 100);
  if (name == "grid") return gen::grid(28, 28, ws, 11);
  if (name == "chain") return gen::chain_forest(6, 250, ws, 13);
  // One 3,000-vertex path: its cones reach past kInlineRepairWork, and a
  // decrease near the source lowers more than that, so a repair escalates
  // to the team.
  if (name == "long_chain") return gen::chain_forest(1, 3000, ws, 29);
  if (name == "er") return gen::erdos_renyi(1600, 6.0, ws, 17);
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

enum class Mode { kDecrease, kMixed, kStructural };

const char* to_name(Mode m) {
  switch (m) {
    case Mode::kDecrease: return "decrease";
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

/// Adds to `delta` a jam (+50) of an arc on a shortest path from `source`,
/// so the next repair of `source` walks a cone.
void jam_tree_arc(VersionedGraph& vg, VertexId source, Xoshiro256& rng,
                  GraphDelta& delta) {
  const std::vector<Distance> d = dijkstra(vg.graph(), source).dist;
  for (int tries = 0; tries < 4096; ++tries) {
    ArcSample s;
    if (!sample_arc(vg, rng, &s) || s.e.dst == source || d[s.u] == kInfDist ||
        saturating_add(d[s.u], s.e.w) != d[s.e.dst])
      continue;
    delta.set_weight(s.u, s.e.dst, s.e.w + 50);
    return;
  }
  ADD_FAILURE() << "no shortest-path arc sampled";
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

/// A Solver plus the answer it last returned for each (graph, source) and
/// the version that answer is exact at, kept as the QueryService cache
/// keeps them: solve() repairs a pair from its own entry through the
/// Solver's versioned solve(). Each solve drops the pair's previous
/// answer, so the next repair of it can patch that buffer forward.
class Repairer {
 public:
  explicit Repairer(SsspOptions options) : solver_(std::move(options)) {}

  const Answer& solve(VersionedGraph& vg, VertexId source) {
    Held& held = held_[{vg.uid(), source}];
    held.answer = solver_.solve(vg, source, held.answer, held.version);
    held.version = vg.version();
    last_ = &held;
    return held.answer;
  }
  /// The last solve()'s answer.
  [[nodiscard]] Answer answer() const { return last_->answer; }
  [[nodiscard]] const obs::MetricsSnapshot& last_metrics() const {
    return solver_.last_metrics();
  }
  [[nodiscard]] Solver& solver() { return solver_; }
  [[nodiscard]] SsspOptions& options() { return solver_.options(); }

 private:
  struct Held {
    Answer answer;
    std::uint64_t version = 0;
  };
  Solver solver_;
  std::map<std::pair<std::uint64_t, VertexId>, Held> held_;
  const Held* last_ = nullptr;
};

// --- published answers: patched from the engine's log, never rewritten
// --- while held -------------------------------------------------------------

/// kUpdates of the repairer's last solve: the entries its engine logged.
std::uint64_t run_updates(const Repairer& inc) {
  return inc.last_metrics().counter(CId::kUpdates);
}

/// Vertices the repairer's last solve processed (both runs of an escalated
/// repair).
std::uint64_t run_processed(const Repairer& inc) {
  return inc.last_metrics().counter(CId::kVerticesProcessed);
}

/// The repair started from the buffer one publish back, patched forward
/// over the previous change set, instead of a whole copy of `from`.
bool patched(const obs::MetricsSnapshot& m) {
  return m.counter(CId::kRepairRecycled) == 1 &&
         m.counter(CId::kRepairArrayCopies) == 0;
}

/// A repair's cone walk, engine parallel phases and publish, in seconds:
/// disjoint slices of its wall time.
double layers_seconds(const obs::MetricsSnapshot& m) {
  return 1e-9 * static_cast<double>(m.counter(CId::kRepairWalkNs) +
                                    m.counter(CId::kRepairInArcBuildNs) +
                                    m.counter(CId::kRepairPublishNs)) +
         m.seconds;
}

/// The checks every published repair must pass: the answer is exact, and a
/// repair's working buffer started as exactly one of a patch of the buffer
/// one publish back or a whole copy of the answer repaired (the copy is its
/// one epoch sweep and writes all n entries).
void expect_published_answer(Repairer& inc, const Graph& g,
                             VertexId source, const std::string& what) {
  const Answer answer = inc.answer();
  ASSERT_FALSE(answer.empty()) << what;
  EXPECT_EQ(dijkstra(g, source).dist, answer) << what;
  const obs::MetricsSnapshot& m = inc.last_metrics();
  if (m.counter(CId::kRepairBatches) == 0) return;  // a full solve
  const std::uint64_t copies = m.counter(CId::kRepairArrayCopies);
  EXPECT_EQ(copies + m.counter(CId::kRepairRecycled), 1u) << what;
  EXPECT_EQ(m.counter(CId::kEpochSweeps), copies) << what;
  if (copies == 1) {
    EXPECT_EQ(m.counter(CId::kRepairPublishedEntries), answer.size()) << what;
  }
}

TEST(IncrementalAnswer, RepairsPublishExactImmutableAnswers) {
  int repairs = 0;
  int inline_runs = 0;
  int escalated = 0;
  for (const char* shape : {"grid", "chain", "rmat_dir", "long_chain"}) {
    for (const Mode mode : {Mode::kMixed, Mode::kStructural}) {
      const std::string name = std::string(shape) + "/" + to_name(mode);
      VersionedGraph vg(make_shape(shape));
      const VertexId source = pick_source(vg);
      Repairer inc(test_options());
      (void)inc.solve(vg, source);

      // Every answer published so far, with its version's reference.
      std::vector<std::pair<Answer, std::vector<Distance>>> held;
      held.emplace_back(inc.answer(), dijkstra(vg.graph(), source).dist);
      Xoshiro256 rng(0xA75ULL + name.size() * 31 +
                     static_cast<std::uint64_t>(mode));
      for (int b = 0; b < 10; ++b) {
        const GraphDelta delta = random_batch(vg, mode, rng, 6);
        if (delta.empty()) continue;
        (void)vg.apply(delta);
        const Answer& returned = inc.solve(vg, source);
        const std::string what = name + " batch " + std::to_string(b);
        EXPECT_EQ(returned.data(), inc.answer().data()) << what;
        expect_published_answer(inc, vg.graph(), source, what);
        const obs::MetricsSnapshot& rs = inc.last_metrics();
        if (rs.counter(CId::kRepairFullSolves) == 0) {
          // Every earlier answer is held below, so no buffer is free and
          // each repair copies its answer into a new one: a patch would
          // rewrite a held answer.
          EXPECT_FALSE(patched(rs)) << what;
          EXPECT_EQ(rs.counter(CId::kRepairArrayCopies), 1u) << what;
          ++repairs;
          // The width follows the work done: a repair escalates to the
          // team exactly when its inline run paused at the budget with work
          // left, so it processed more than the budget in all.
          const std::uint64_t escalations =
              rs.counter(CId::kRepairEscalations);
          EXPECT_EQ(escalations,
                    run_processed(inc) > kInlineRepairWork ? 1u : 0u)
              << what;
          ++(escalations == 0 ? inline_runs : escalated);
        }

        // No new version: the same buffer again, not a copy.
        const Answer before = inc.answer();
        EXPECT_EQ(inc.solve(vg, source).data(), before.data()) << what;
        EXPECT_EQ(inc.answer().data(), before.data()) << what;

        held.emplace_back(inc.answer(), dijkstra(vg.graph(), source).dist);
        for (std::size_t i = 0; i < held.size(); ++i)
          ASSERT_EQ(held[i].second, held[i].first)
              << what << ": answer " << i << " was written after publishing";
      }
    }
  }
  // Repairs ran, and both stayed inline and escalated to the team.
  EXPECT_GT(repairs, 0);
  EXPECT_GT(inline_runs, 0);
  EXPECT_GT(escalated, 0);
}

TEST(IncrementalAnswer, ManySeedsRepairOnTheTeamWithTheLog) {
  // Weight drops on a quarter of a 48x48 grid's edges: no cone, so the
  // engine logs, and more decrease sources than kInlineRepairWork, so the
  // inline run passes its budget and the repair escalates to the Solver's
  // two workers, appending to the log concurrently.
  VersionedGraph vg(gen::grid(48, 48, WeightScheme::uniform(2, 100), 31));
  const VertexId source = pick_source(vg);
  Repairer inc(test_options());
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
  const obs::MetricsSnapshot& rs = inc.last_metrics();
  ASSERT_EQ(rs.counter(CId::kRepairFullSolves), 0u);
  EXPECT_EQ(rs.counter(CId::kRepairConeVertices), 0u);
  EXPECT_GE(rs.counter(CId::kRepairSeedVertices), kInlineRepairWork);
  EXPECT_EQ(rs.counter(CId::kRepairEscalations), 1u);
  EXPECT_GT(rs.counter(CId::kUpdates), 0u);
  expect_published_answer(inc, vg.graph(), source, "grid drops");
}

TEST(IncrementalAnswer, LargeConeFewSeedsRepairsInline) {
  // Jamming the third arc of a 3,000-vertex chain re-prices the whole tail,
  // a cone far past kInlineRepairWork, yet no bound can improve: the
  // engine processes only the seeds, so the repair never wakes the team.
  VersionedGraph vg(make_shape("long_chain"));
  Repairer inc(test_options());
  (void)inc.solve(vg, 0);
  GraphDelta jam;
  jam.set_weight(2, 3, 500);
  (void)vg.apply(jam);
  (void)inc.solve(vg, 0);
  const obs::MetricsSnapshot& rs = inc.last_metrics();
  ASSERT_EQ(rs.counter(CId::kRepairFullSolves), 0u);
  EXPECT_GT(rs.counter(CId::kRepairConeVertices), kInlineRepairWork);
  EXPECT_LE(run_processed(inc), kInlineRepairWork);
  EXPECT_EQ(rs.counter(CId::kRepairEscalations), 0u);
  expect_published_answer(inc, vg.graph(), 0, "long chain jam");
}

/// Counts on_termination calls: once per worker that leaves a run through
/// its termination scan.
struct TerminationCounter final : obs::RunObserver {
  void on_termination(int /*tid*/) override {
    terminations.fetch_add(1, std::memory_order_relaxed);
  }
  std::atomic<int> terminations{0};
};

TEST(IncrementalAnswer, EscalatedRepairResumesFromThePausedFrontier) {
  // Dropping the second arc of a 3,000-vertex chain lowers the whole tail.
  // The inline run pauses at kInlineRepairWork processed vertices, with
  // the rest of the chain still at its old distances, and the team must
  // resume from the frontier it left: the seed alone improves nothing
  // further. Resuming, not replaying, processes each lowered vertex once:
  // no more vertices than the lowerings plus the seeds.
  VersionedGraph vg(make_shape("long_chain"));
  Repairer inc(test_options());
  (void)inc.solve(vg, 0);
  const Distance before = inc.answer()[vg.num_vertices() - 1];
  TerminationCounter counter;
  inc.options().observer = &counter;
  GraphDelta drop;
  drop.set_weight(1, 2, 1);
  (void)vg.apply(drop);
  const Timer wall;
  (void)inc.solve(vg, 0);
  const double wall_seconds = wall.seconds();
  const obs::MetricsSnapshot& rs = inc.last_metrics();
  ASSERT_EQ(rs.counter(CId::kRepairFullSolves), 0u);
  EXPECT_EQ(rs.counter(CId::kRepairConeVertices), 0u);
  EXPECT_GT(run_processed(inc), kInlineRepairWork);
  EXPECT_EQ(rs.counter(CId::kRepairEscalations), 1u);
  // Both engine runs sit in the report's seconds, beside the walk and the
  // publish, inside the solve's wall time.
  EXPECT_LE(layers_seconds(rs), wall_seconds);
  EXPECT_GT(rs.counter(CId::kUpdates), kInlineRepairWork);
  EXPECT_LE(run_processed(inc), rs.counter(CId::kUpdates) +
                                    rs.counter(CId::kRepairSeedVertices));
  EXPECT_LT(inc.answer()[vg.num_vertices() - 1], before);
  expect_published_answer(inc, vg.graph(), 0, "long chain drop");
  // The paused inline worker leaves as a cancelled one does, without a
  // termination: only the team's workers report one.
  EXPECT_EQ(counter.terminations.load(), 2);

  // A small drop near the end stays inline, and its one worker terminates.
  counter.terminations = 0;
  GraphDelta tail_drop;
  tail_drop.set_weight(2990, 2991, 1);
  (void)vg.apply(tail_drop);
  (void)inc.solve(vg, 0);
  EXPECT_EQ(inc.last_metrics().counter(CId::kRepairEscalations), 0u);
  EXPECT_EQ(counter.terminations.load(), 1);
  expect_published_answer(inc, vg.graph(), 0, "long chain tail drop");
  inc.options().observer = nullptr;

  // A one-thread Solver has no team to escalate to: the same drop runs
  // inline to the end.
  VersionedGraph solo_vg(make_shape("long_chain"));
  SsspOptions solo_options = test_options();
  solo_options.threads = 1;
  Repairer solo(solo_options);
  (void)solo.solve(solo_vg, 0);
  (void)solo_vg.apply(drop);
  (void)solo.solve(solo_vg, 0);
  ASSERT_EQ(solo.last_metrics().counter(CId::kRepairFullSolves), 0u);
  EXPECT_GT(run_processed(solo), kInlineRepairWork);
  EXPECT_EQ(solo.last_metrics().counter(CId::kRepairEscalations), 0u);
  expect_published_answer(solo, solo_vg.graph(), 0, "one-thread drop");
}

/// Undirected path 0-1-...-199 (weight 3) with a pendant leaf 200 on vertex
/// 195, for repairs from source 0. A sixteenth of its 201 vertices is 12,
/// so a change near the far end is kept for the next repair's patch and
/// one near the source is not.
/// A longer `path` keeps the pendant five vertices from the end.
Graph comb(VertexId path = 200) {
  std::vector<Edge> edges;
  for (VertexId u = 0; u + 1 < path; ++u) edges.push_back(Edge{u, u + 1, 3});
  edges.push_back(Edge{path - 5, path, 3});
  return GraphBuilder()
      .edges(path + 1, std::move(edges))
      .undirected(true)
      .build();
}

/// One thread and one bucket, so the repair's order is fixed: the seeds are
/// popped in the reverse of their journal order.
SsspOptions one_bucket_options() {
  SsspOptions options = test_options();
  options.threads = 1;
  options.delta = 1u << 20;
  return options;
}

/// What repair_comb() saw: the report of the batch's repair, and whether
/// the repair after it patched the buffer one publish back.
struct CombRepair {
  obs::MetricsSnapshot report;
  bool next_patched = false;
};

/// Solves comb() from 0, applies `batch` and repairs, then repairs once
/// more over an arc insert that lowers nothing, and checks both answers.
/// The batch's repair copies the full solve's answer, which has no buffer
/// one publish behind it. The next repair patches the full solve's buffer
/// forward over the batch's change set, when that set was kept (cone plus
/// log, within n / kPatchShare): an entry the batch changed but did not
/// list would read stale there.
CombRepair repair_comb(const GraphDelta& batch) {
  VersionedGraph vg(comb());
  Repairer inc(one_bucket_options());
  (void)inc.solve(vg, 0);
  (void)vg.apply(batch);
  (void)inc.solve(vg, 0);
  EXPECT_EQ(inc.last_metrics().counter(CId::kRepairFullSolves), 0u);
  expect_published_answer(inc, vg.graph(), 0, "comb");
  CombRepair out{inc.last_metrics()};
  GraphDelta nothing;
  nothing.insert(0, 2, 100);  // seeds 0 and 2, lowers nothing
  (void)vg.apply(nothing);
  (void)inc.solve(vg, 0);
  expect_published_answer(inc, vg.graph(), 0, "comb, next repair");
  out.next_patched = patched(inc.last_metrics());
  return out;
}

TEST(IncrementalAnswer, ClosurePatchesAConeLeftUnreachable) {
  // Cutting 190-191 strands 191..199 and the pendant: a cone of ten that
  // no seed reaches, so only the cone's entries in the change set carry
  // their infinities into the next repair's patch.
  GraphDelta cut;
  cut.erase(190, 191);
  const CombRepair r = repair_comb(cut);
  EXPECT_EQ(r.report.counter(CId::kRepairConeVertices), 10u);
  EXPECT_EQ(r.report.counter(CId::kUpdates), 0u);
  EXPECT_TRUE(r.next_patched);
}

TEST(IncrementalAnswer, DecreasePatchesLoweredVerticesOutsideAnyCone) {
  GraphDelta drop;
  drop.set_weight(196, 197, 1);
  const CombRepair r = repair_comb(drop);
  EXPECT_EQ(r.report.counter(CId::kRepairConeVertices), 0u);
  EXPECT_GE(r.report.counter(CId::kUpdates), 3u);  // 197, 198, 199
  EXPECT_TRUE(r.next_patched);
}

TEST(IncrementalAnswer, DecreasePatchesAPrunedLeaf) {
  // The pendant 200 is a leaf: 195's push lowers it and never schedules it,
  // so only a log entry written before the leaf test reaches the patch.
  GraphDelta drop;
  drop.set_weight(193, 194, 1);
  const CombRepair r = repair_comb(drop);
  EXPECT_EQ(r.report.counter(CId::kRepairConeVertices), 0u);
  EXPECT_TRUE(r.next_patched);
}

TEST(IncrementalAnswer, DecreasePatchesASeedLoweredByItsPull) {
  // Both ends of 190-191 are seeds, journaled 190 first, so the one bucket
  // pops 191 first. Its bidirectional-relaxation pull lowers it through the
  // cheaper arc; 190's later push finds nothing left to improve.
  GraphDelta drop;
  drop.set_weight(190, 191, 1);
  const CombRepair r = repair_comb(drop);
  EXPECT_EQ(r.report.counter(CId::kRepairSeedVertices), 2u);
  EXPECT_TRUE(r.next_patched);
}

TEST(IncrementalAnswer, WideConeDecodesTheWholeArray) {
  GraphDelta cut;
  cut.erase(10, 11);  // a cone of 190 > 12
  const CombRepair r = repair_comb(cut);
  EXPECT_EQ(r.report.counter(CId::kRepairConeVertices), 190u);
  EXPECT_EQ(r.report.counter(CId::kUpdates), 0u);
  EXPECT_EQ(r.report.counter(CId::kRepairPublishedEntries), 201u);
  // A change set past the limit is not kept: the next repair copies.
  EXPECT_FALSE(r.next_patched);
}

TEST(IncrementalAnswer, WideLogDecodesAfterLogging) {
  GraphDelta drop;
  drop.set_weight(10, 11, 1);  // no cone, but 190 vertices lowered
  const CombRepair r = repair_comb(drop);
  EXPECT_EQ(r.report.counter(CId::kRepairConeVertices), 0u);
  EXPECT_GT(r.report.counter(CId::kUpdates), 50u);
  EXPECT_FALSE(r.next_patched);
}

// --- recycled buffers: a released answer is rewritten, a held one never ---

/// A repair's change set: its cone plus its log, the entries where its
/// answer may differ from the one it repaired.
std::uint64_t change_set(const obs::MetricsSnapshot& m) {
  return m.counter(CId::kRepairConeVertices) + m.counter(CId::kUpdates);
}

TEST(IncrementalAnswer, HeldAnswersStayExactWhileReleasedOnesAreRecycled) {
  // A reader keeps each published answer for 0 to 6 further publishes
  // (cycling) and then drops it. Every answer it still holds must read as
  // its own version's reference. A repair whose buffer one publish behind
  // was released patches it forward over the previous change set alone
  // (when that set fit the patch limit); one whose buffer is still held
  // copies the answer it repairs whole.
  VersionedGraph vg(gen::grid(64, 64, WeightScheme::uniform(1, 100), 37));
  const VertexId source = pick_source(vg);
  const std::uint64_t n = vg.num_vertices();
  Repairer inc(test_options());
  (void)inc.solve(vg, source);

  struct Held {
    Answer answer;
    std::vector<Distance> reference;
    int published;  ///< index of the publish that made it
    int until;      ///< dropped once this many publishes have happened
  };
  // A hold of 2 followed by a longer one releases a buffer two publishes
  // behind while the one a single publish behind is still held.
  constexpr int kHold[] = {0, 2, 3, 1, 6, 0, 2, 2};
  std::vector<Held> held;
  held.push_back({inc.answer(), dijkstra(vg.graph(), source).dist, 0, 1});
  obs::MetricsSnapshot previous = inc.last_metrics();
  int publishes = 0;
  int recycled = 0;
  int copied = 0;
  int longest = 0;
  Xoshiro256 rng(0x4E1DULL);
  for (int b = 0; b < 48; ++b) {
    const GraphDelta delta = random_batch(vg, Mode::kMixed, rng, 2);
    if (delta.empty()) continue;
    (void)vg.apply(delta);
    const bool behind_held =
        std::any_of(held.begin(), held.end(), [&](const Held& h) {
          return h.published == publishes - 1;
        });
    (void)inc.solve(vg, source);
    ++publishes;
    const std::string what = "batch " + std::to_string(b);
    expect_published_answer(inc, vg.graph(), source, what);
    const obs::MetricsSnapshot rs = inc.last_metrics();
    ASSERT_EQ(rs.counter(CId::kRepairFullSolves), 0u) << what;
    // The previous repair kept its change set for this one's patch.
    const bool kept = previous.counter(CId::kRepairBatches) > 0 &&
                      change_set(previous) <= n / kPatchShare;
    if (kept && !behind_held) {
      EXPECT_TRUE(patched(rs)) << what;
      EXPECT_EQ(rs.counter(CId::kRepairPublishedEntries), change_set(previous))
          << what;
      ++recycled;
    } else {
      EXPECT_EQ(rs.counter(CId::kRepairArrayCopies), 1u) << what;
      EXPECT_EQ(rs.counter(CId::kRepairPublishedEntries), n) << what;
      ++copied;
    }
    previous = rs;

    const int hold = kHold[publishes % std::size(kHold)];
    held.push_back({inc.answer(), dijkstra(vg.graph(), source).dist,
                    publishes, publishes + hold});
    std::erase_if(held, [&](const Held& h) {
      if (h.until > publishes) return false;
      longest = std::max(longest, publishes - h.published);
      return true;
    });
    for (const Held& h : held) {
      ASSERT_EQ(h.reference, h.answer)
          << what << ": answer " << h.published << " changed while held";
    }
  }
  EXPECT_GE(longest, 6);
  EXPECT_GT(recycled, 0);
  EXPECT_GT(copied, 0);
}

TEST(IncrementalAnswer, AnswersOutliveTheirSolver) {
  // Answers keep their buffers after the solver is gone; dropping them
  // then frees the buffers instead of returning them to its free list.
  VersionedGraph vg(comb());
  std::vector<Answer> kept;
  {
    Repairer inc(one_bucket_options());
    kept.push_back(inc.solve(vg, 0));
    GraphDelta drop;
    drop.set_weight(196, 197, 1);
    (void)vg.apply(drop);
    kept.push_back(inc.solve(vg, 0));
    ASSERT_EQ(inc.last_metrics().counter(CId::kRepairFullSolves), 0u);
  }
  EXPECT_EQ(dijkstra(vg.graph(), 0).dist, kept.back());
  EXPECT_NE(kept.front(), kept.back());
  kept.clear();
}

TEST(IncrementalAnswer, RecycledRepairWritesThePreviousChangeSetAtAnyN) {
  // Drops near the far end of a comb lower the same few vertices at any
  // length. The first repair after the full solve copies the answer (n
  // entries); each later one patches the buffer one publish behind with
  // only the previous repair's change set, so the same repairs write the
  // same entries at n = 201 and 2,001, and a repair after one that changed
  // nothing writes nothing.
  std::vector<std::uint64_t> written[2];
  for (int i = 0; i < 2; ++i) {
    const VertexId path = i == 0 ? 200 : 2000;
    VersionedGraph vg(comb(path));
    Repairer inc(one_bucket_options());
    (void)inc.solve(vg, 0);
    GraphDelta first;
    first.set_weight(path - 4, path - 3, 2);
    GraphDelta second;
    second.set_weight(path - 2, path - 1, 1);
    GraphDelta nothing;
    nothing.insert(0, 2, 100);  // seeds 0 and 2, lowers nothing
    GraphDelta after_nothing;
    after_nothing.insert(1, 3, 100);
    obs::MetricsSnapshot previous;
    int k = 0;
    for (const GraphDelta* batch :
         {&first, &second, &nothing, &after_nothing}) {
      const std::string what =
          "n " + std::to_string(path + 1) + " repair " + std::to_string(k);
      (void)vg.apply(*batch);
      (void)inc.solve(vg, 0);
      expect_published_answer(inc, vg.graph(), 0, what);
      const obs::MetricsSnapshot rs = inc.last_metrics();
      EXPECT_EQ(patched(rs), k > 0) << what;
      if (k == 0) {
        EXPECT_EQ(rs.counter(CId::kRepairPublishedEntries), path + 1) << what;
      } else {
        EXPECT_EQ(rs.counter(CId::kRepairPublishedEntries),
                  change_set(previous))
            << what;
        written[i].push_back(rs.counter(CId::kRepairPublishedEntries));
      }
      previous = rs;
      ++k;
    }
    EXPECT_EQ(written[i].back(), 0u);
  }
  EXPECT_EQ(written[0], written[1]);
  EXPECT_GT(written[0].front(), 0u);
}

// --- the working buffer: patched or copied, then published as it stands ---

/// Solves comb(path) from 0 on `inc`, then repairs a drop near its far end,
/// a narrow change set. Returns the repair's answer: the full solve's
/// buffer is free by then, so the next repair of it can patch that buffer.
Answer comb_after_narrow_repair(Solver& inc, VersionedGraph& vg) {
  Answer answer = inc.solve(vg, 0, {}, 0);
  const std::uint64_t answered = vg.version();
  const VertexId far = vg.num_vertices() - 5;
  (void)vg.apply(GraphDelta().set_weight(far, far + 1, 1));
  answer = inc.solve(vg, 0, answer, answered);
  EXPECT_EQ(inc.last_metrics().counter(CId::kRepairArrayCopies), 1u);
  return answer;
}

TEST(IncrementalAnswer, RepairPublishesTheBufferOnePublishBack) {
  // The repair of the last answer published, whose buffer one publish back
  // every holder dropped, patches that buffer forward and publishes it: no
  // O(n) pass, no copy, and the new answer is the dropped one's storage.
  VersionedGraph vg(comb());
  Solver inc(one_bucket_options());
  Answer full = inc.solve(vg, 0, {}, 0);
  const Distance* const dropped = full.data();
  const std::uint64_t full_version = vg.version();
  (void)vg.apply(GraphDelta().set_weight(196, 197, 1));
  Answer answer = inc.solve(vg, 0, full, full_version);
  const std::uint64_t answered = vg.version();
  full = Answer();  // every holder of the buffer one publish back let go

  (void)vg.apply(GraphDelta().set_weight(190, 191, 30));
  answer = inc.solve(vg, 0, answer, answered);
  const obs::MetricsSnapshot& m = inc.last_metrics();
  EXPECT_EQ(m.counter(CId::kRepairFullSolves), 0u);
  EXPECT_EQ(m.counter(CId::kEpochSweeps), 0u);
  EXPECT_EQ(m.counter(CId::kRepairArrayCopies), 0u);
  EXPECT_EQ(m.counter(CId::kRepairRecycled), 1u);
  EXPECT_EQ(answer.data(), dropped);
  EXPECT_EQ(answer, dijkstra(vg.graph(), 0).dist);
}

TEST(IncrementalAnswer, RepairWithNoFreeBufferCopiesItsAnswerOnce) {
  // Every earlier answer is still held, so no buffer is free: the repair
  // copies `from` into a new buffer once (one epoch sweep, n entries
  // written) and is still exact.
  VersionedGraph vg(comb());
  Solver inc(one_bucket_options());
  const Answer full = inc.solve(vg, 0, {}, 0);
  (void)vg.apply(GraphDelta().set_weight(196, 197, 1));
  const Answer first = inc.solve(vg, 0, full, vg.version() - 1);
  (void)vg.apply(GraphDelta().set_weight(190, 191, 30));
  const Answer second = inc.solve(vg, 0, first, vg.version() - 1);
  const obs::MetricsSnapshot& m = inc.last_metrics();
  EXPECT_EQ(m.counter(CId::kEpochSweeps), 1u);
  EXPECT_EQ(m.counter(CId::kRepairArrayCopies), 1u);
  EXPECT_EQ(m.counter(CId::kRepairRecycled), 0u);
  EXPECT_EQ(m.counter(CId::kRepairPublishedEntries), vg.num_vertices());
  EXPECT_EQ(second, dijkstra(vg.graph(), 0).dist);
  for (const Answer* held : {&full, &first})
    EXPECT_NE(second.data(), held->data());
}

TEST(IncrementalAnswer, RepairCancelledMidWalkIsNeitherPublishedNorPatched) {
  // A jam near the head of a long path re-prices its whole tail: a cone
  // of 2^18 vertices whose walk polls the token every 4,096 of them. A
  // deadline that passes inside the walk cancels the repair after it has
  // patched the free buffer one publish back and written bounds into it.
  // That buffer must be freed, not returned: the next repair finds no
  // buffer one publish back, copies its answer, and is exact.
  constexpr VertexId kPath = VertexId{1} << 18;
  VersionedGraph vg(comb(kPath));
  Solver inc(one_bucket_options());
  const Answer answer = comb_after_narrow_repair(inc, vg);
  const std::uint64_t answered = vg.version();
  (void)vg.apply(GraphDelta().set_weight(2, 3, 500));

  CancelToken token;
  inc.options().cancel = &token;
  int cancelled = 0;
  for (auto budget = std::chrono::microseconds(50);; budget *= 2) {
    token.reset();
    token.set_budget(budget);
    try {
      const Answer repaired = inc.solve(vg, 0, answer, answered);
      const obs::MetricsSnapshot& m = inc.last_metrics();
      EXPECT_EQ(m.counter(CId::kRepairFullSolves), 0u);
      EXPECT_EQ(m.counter(CId::kRepairConeVertices), kPath - 2);
      EXPECT_EQ(m.counter(CId::kRepairRecycled), 0u);
      EXPECT_EQ(m.counter(CId::kRepairArrayCopies), 1u);
      EXPECT_EQ(repaired, dijkstra(vg.graph(), 0).dist);
      break;
    } catch (const SolveCancelledError& e) {
      EXPECT_EQ(e.reason(), CancelReason::kDeadline);
      ++cancelled;
    }
  }
  EXPECT_GT(cancelled, 0);
}

TEST(IncrementalAnswer, ThreeHundredRepairsWrapTheConeStampAndStayExact) {
  // The cone is marked with a one-byte stamp, new for every repair and
  // cleared in full only when it wraps after 255 repairs. A stale mark
  // left from a stamp's previous use would read as a cone vertex. Every
  // repair of a long run must stay bit-identical to Dijkstra, on both
  // the patch and the copy path.
  VersionedGraph vg(gen::grid(16, 16, WeightScheme::uniform(1, 100), 41));
  const VertexId source = pick_source(vg);
  Repairer inc(test_options());
  (void)inc.solve(vg, source);
  Answer kept;  // every seventh answer is held one extra publish
  Xoshiro256 rng(0x57A3ULL);
  int repairs = 0;
  int patches = 0;
  while (repairs < 300) {
    const GraphDelta delta = random_batch(vg, Mode::kMixed, rng, 3);
    if (delta.empty()) continue;
    (void)vg.apply(delta);
    (void)inc.solve(vg, source);
    const std::string what = "repair " + std::to_string(repairs);
    ASSERT_EQ(inc.last_metrics().counter(CId::kRepairFullSolves), 0u) << what;
    ASSERT_EQ(dijkstra(vg.graph(), source).dist, inc.answer()) << what;
    if (patched(inc.last_metrics())) ++patches;
    kept = ++repairs % 7 == 0 ? inc.answer() : Answer();
  }
  EXPECT_GT(patches, 0);
  EXPECT_LT(patches, repairs);
}

TEST(IncrementalAnswer, SolverStateIsTwoBytesPerVertexAfterItsFirstRepair) {
  // The solver_state_bytes gauge: free answer buffers plus repair scratch.
  // A cold solve hands its buffer out as its result, so a Solver keeps no
  // distance array between cold solves. Its first versioned solve, here a
  // narrow repair of a given answer, adds the cone stamps and the seed
  // flags, one byte per vertex each, plus lists sized by the cone: no
  // four-byte bound per vertex.
  VersionedGraph vg(comb(2000));
  const std::uint64_t n = vg.num_vertices();
  Solver inc(one_bucket_options());
  const auto state_bytes = [&] {
    return inc.last_metrics().gauge(obs::GaugeId::kSolverStateBytes);
  };
  EXPECT_EQ(inc.solve(vg.graph(), 0).dist, dijkstra(vg.graph(), 0).dist);
  EXPECT_EQ(state_bytes(), 0u);

  const Answer from(dijkstra(vg.graph(), 0).dist);
  const std::uint64_t answered = vg.version();
  (void)vg.apply(GraphDelta().set_weight(1990, 1991, 30));
  const Answer repaired = inc.solve(vg, 0, from, answered);
  ASSERT_EQ(inc.last_metrics().counter(CId::kRepairBatches), 1u);
  EXPECT_EQ(repaired, dijkstra(vg.graph(), 0).dist);
  EXPECT_GE(state_bytes(), 2 * n);
  EXPECT_LT(state_bytes(), 3 * n);
}

// --- re-priced cones: each cone vertex keeps its old tree path's price ---

/// Solves `vg` from `source` with `inc`, applies `batches` in turn, and
/// repairs once; checks the answer against Dijkstra.
void repair_after(Repairer& inc, VersionedGraph& vg, VertexId source,
                  const std::vector<GraphDelta>& batches,
                  const std::string& what) {
  (void)inc.solve(vg, source);
  for (const GraphDelta& batch : batches) (void)vg.apply(batch);
  (void)inc.solve(vg, source);
  ASSERT_EQ(inc.last_metrics().counter(CId::kRepairFullSolves), 0u) << what;
  EXPECT_EQ(inc.last_metrics().counter(CId::kRepairBatches), batches.size())
      << what;
  expect_published_answer(inc, vg.graph(), source, what);
}

TEST(IncrementalReprice, TreeJamRepricesTheSubtreeWithoutUpdates) {
  // Jamming 190-191 raises 191..199 and the pendant by exactly the jam, and
  // no other path reaches them: the re-priced cone is already the answer.
  VersionedGraph vg(comb());
  Repairer inc(one_bucket_options());
  GraphDelta jam;
  jam.set_weight(190, 191, 30);
  repair_after(inc, vg, 0, {jam}, "comb jam");
  const obs::MetricsSnapshot& rs = inc.last_metrics();
  EXPECT_EQ(rs.counter(CId::kRepairConeVertices), 10u);
  EXPECT_EQ(rs.counter(CId::kRepairConeResets), 0u);
  EXPECT_EQ(run_updates(inc), 0u);
  EXPECT_EQ(rs.counter(CId::kUpdates), 0u);
  // The cone alone is the change set, so the next repair patches the full
  // solve's buffer forward with the ten re-priced entries.
  GraphDelta nothing;
  nothing.insert(0, 2, 100);  // seeds 0 and 2, lowers nothing
  (void)vg.apply(nothing);
  (void)inc.solve(vg, 0);
  expect_published_answer(inc, vg.graph(), 0, "comb jam, next repair");
  EXPECT_TRUE(patched(inc.last_metrics()));
  EXPECT_EQ(inc.last_metrics().counter(CId::kRepairPublishedEntries), 10u);

  // Two raises of one arc caught up at once: only the first is admissible
  // under the warm distances, but the head must be priced at the second.
  VersionedGraph vg2(comb());
  Repairer inc2(one_bucket_options());
  GraphDelta raise;
  raise.set_weight(190, 191, 10);
  GraphDelta raise_again;
  raise_again.set_weight(190, 191, 40);
  repair_after(inc2, vg2, 0, {raise, raise_again}, "comb raised twice");
  EXPECT_EQ(inc2.last_metrics().counter(CId::kRepairConeVertices), 10u);
  EXPECT_EQ(run_updates(inc2), 0u);
}

/// The shortest-path-tree parent of every vertex reachable from `source`
/// (kInvalidVertex for the source and unreachable vertices).
std::vector<VertexId> tree_parents(const Graph& g, VertexId source) {
  const std::vector<Distance> d = dijkstra(g, source).dist;
  std::vector<VertexId> parent(g.num_vertices(), kInvalidVertex);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    if (d[u] == kInfDist) continue;
    for (const WEdge& e : g.out_neighbors(u)) {
      if (e.dst != source && parent[e.dst] == kInvalidVertex &&
          saturating_add(d[u], e.w) == d[e.dst])
        parent[e.dst] = u;
    }
  }
  return parent;
}

TEST(IncrementalReprice, NestedJamsPriceInnerHeadsFromOuterCones) {
  // The inner jam's tail lies in the outer jam's cone. The inner jam comes
  // first in the batch, so only the walk's nearest-head-first order lets
  // the inner head read its tail's re-priced bound, not its stale warm
  // distance. Then the same jams as a two-batch catch-up.
  const auto jam_inner = [](GraphDelta& d) { d.set_weight(185, 186, 20); };
  const auto jam_outer = [](GraphDelta& d) { d.set_weight(180, 181, 10); };
  GraphDelta both;
  jam_inner(both);
  jam_outer(both);
  GraphDelta inner;
  jam_inner(inner);
  GraphDelta outer;
  jam_outer(outer);
  for (const auto& [name, batches] :
       {std::pair{"one batch", std::vector<GraphDelta>{both}},
        std::pair{"catch-up", std::vector<GraphDelta>{inner, outer}}}) {
    VersionedGraph vg(comb());
    Repairer inc(one_bucket_options());
    repair_after(inc, vg, 0, batches, name);
    const obs::MetricsSnapshot& rs = inc.last_metrics();
    // 181..199 and the pendant.
    EXPECT_EQ(rs.counter(CId::kRepairConeVertices), 20u) << name;
    EXPECT_EQ(rs.counter(CId::kRepairConeResets), 0u) << name;
    EXPECT_EQ(run_updates(inc), 0u) << name;
  }

  // On a road grid, where detours compete with the re-priced paths: jam
  // the tree arcs into a far vertex and into an ancestor halfway up its
  // tree path, inner jam first.
  const Graph grid = gen::grid(24, 24, WeightScheme::uniform(1, 100), 37);
  const std::vector<Distance> d = dijkstra(grid, 0).dist;
  const std::vector<VertexId> parent = tree_parents(grid, 0);
  VertexId far = 0;
  for (VertexId v = 0; v < grid.num_vertices(); ++v)
    if (d[v] != kInfDist && d[v] > d[far]) far = v;
  std::vector<VertexId> path;  // far up to a child of the source
  for (VertexId v = far; parent[v] != kInvalidVertex; v = parent[v])
    path.push_back(v);
  ASSERT_GE(path.size(), 4u);
  const VertexId mid = path[path.size() / 2];
  GraphDelta grid_inner;
  grid_inner.set_weight(parent[far], far, 400);
  GraphDelta grid_outer;
  grid_outer.set_weight(parent[mid], mid, 400);
  GraphDelta grid_both = grid_inner;
  grid_both.set_weight(parent[mid], mid, 400);
  for (const auto& [name, batches] :
       {std::pair{"grid one batch", std::vector<GraphDelta>{grid_both}},
        std::pair{"grid catch-up",
                  std::vector<GraphDelta>{grid_inner, grid_outer}}}) {
    VersionedGraph vg{Graph(grid)};
    Repairer inc(test_options());
    repair_after(inc, vg, 0, batches, name);
    EXPECT_EQ(inc.last_metrics().counter(CId::kRepairConeResets), 0u) << name;
  }
}

TEST(IncrementalReprice, ZeroWeightTieResetsTheConeToInfinity) {
  // 0-2 (5), 2-1 (0), 1-3 (2), 0-3 (100), from 0: 1 and 2 tie at 5. Jamming
  // 0-2 and 2-1 makes both heads; the tie puts 1 first, priced from 2's
  // stale 5, and 2's own walk then admits 2. Only the reset to infinity is
  // exact (1 is at 51, not 6).
  for (const bool undirected : {true, false}) {
    const std::string name = undirected ? "undirected" : "directed";
    VersionedGraph vg(GraphBuilder()
                          .edges(4, {{0, 2, 5}, {2, 1, 0}, {1, 3, 2},
                                     {0, 3, 100}})
                          .undirected(undirected)
                          .build());
    Repairer inc(test_options());
    GraphDelta jams;
    jams.set_weight(0, 2, 50);
    jams.set_weight(2, 1, 1);
    repair_after(inc, vg, 0, {jams}, name);
    EXPECT_EQ(inc.last_metrics().counter(CId::kRepairConeResets), 1u) << name;
    EXPECT_EQ(inc.answer()[1], 51u) << name;
  }
}

TEST(IncrementalReprice, DetourThroughALighterConeIsSeeded) {
  // A 2x3 road grid from s = 0:
  //   0 -1- 1 -1- 2
  //   |2    |5    |1
  //   3 -1- 4 -5- 5
  // Jamming 0-1 to 100 and 0-3 to 3 re-prices two cones, {1, 2, 5} at
  // 100, 101, 102 and {3, 4} at 3, 4. The only intact vertex next to them
  // is the source, which improves neither. The detours 4-1 and 4-5 put 1
  // at 9 and 5 at 9, so the cone vertex 4 must be seeded for its bound.
  for (const bool undirected : {true, false}) {
    const std::string name = undirected ? "undirected" : "directed";
    std::vector<Edge> edges = {{0, 1, 1}, {1, 2, 1}, {0, 3, 2}, {1, 4, 5},
                               {2, 5, 1}, {3, 4, 1}, {4, 5, 5}};
    if (!undirected) {
      for (std::size_t i = 0, m = edges.size(); i < m; ++i)
        edges.push_back(Edge{edges[i].dst, edges[i].src, edges[i].w});
    }
    VersionedGraph vg(GraphBuilder()
                          .edges(6, std::move(edges))
                          .undirected(undirected)
                          .build());
    Repairer inc(test_options());
    GraphDelta jams;
    jams.set_weight(0, 1, 100);
    jams.set_weight(0, 3, 3);
    repair_after(inc, vg, 0, {jams}, name);
    const obs::MetricsSnapshot& rs = inc.last_metrics();
    EXPECT_EQ(rs.counter(CId::kRepairConeVertices), 5u) << name;
    EXPECT_EQ(rs.counter(CId::kRepairConeResets), 0u) << name;
    EXPECT_EQ(inc.answer()[1], 9u) << name;
  }
}

/// The cone the walk must admit, computed on its own: every head of an
/// increase that was admissible under the warm answer, closed under the
/// arcs (x, y) of the current graph with warm[x] + w <= warm[y], finite
/// warm values and y != source.
std::size_t admissible_closure(const Graph& g, std::span<const Distance> warm,
                               std::span<const ArcEffect> effects,
                               VertexId source) {
  std::vector<std::uint8_t> in(g.num_vertices(), 0);
  std::vector<VertexId> frontier;
  const auto enter = [&](VertexId v) {
    if (in[v] || v == source || warm[v] == kInfDist) return;
    in[v] = 1;
    frontier.push_back(v);
  };
  for (const ArcEffect& e : effects) {
    if (e.is_increase() && warm[e.src] != kInfDist &&
        saturating_add(warm[e.src], e.old_w) <= warm[e.dst])
      enter(e.dst);
  }
  std::size_t size = 0;
  for (; !frontier.empty(); ++size) {
    const VertexId x = frontier.back();
    frontier.pop_back();
    for (const WEdge& e : g.out_neighbors(x))
      if (saturating_add(warm[x], e.w) <= warm[e.dst]) enter(e.dst);
  }
  return size;
}

TEST(IncrementalReprice, WalkOrderDoesNotChangeTheCone) {
  const Graph tie = GraphBuilder()
                        .edges(6, {{0, 2, 5}, {2, 1, 0}, {1, 3, 2},
                                   {0, 3, 100}, {3, 4, 0}, {4, 5, 0}})
                        .undirected(true)
                        .build();
  for (const auto& [name, graph] :
       {std::pair{"grid", make_shape("grid")}, std::pair{"comb", comb()},
        std::pair{"chain", make_shape("chain")},
        std::pair{"zero-weight tie", tie}}) {
    for (const Mode mode : {Mode::kMixed, Mode::kStructural}) {
      VersionedGraph vg{Graph(graph)};
      Repairer inc(test_options());
      (void)inc.solve(vg, 0);
      Xoshiro256 rng(0xC0E5ULL + static_cast<std::uint64_t>(mode));
      for (int b = 0; b < 6; ++b) {
        const std::string what = std::string(name) + "/" + to_name(mode) +
                                 " batch " + std::to_string(b);
        GraphDelta delta = random_batch(vg, mode, rng, 4);
        if (delta.empty()) continue;
        const Answer warm = inc.answer();
        const std::uint64_t version = vg.version();
        (void)vg.apply(delta);
        const VersionedGraph::JournalView jv = vg.journal_since(version);
        ASSERT_TRUE(jv.ok) << what;
        const std::size_t expected = admissible_closure(
            vg.graph(), std::span<const Distance>(warm.data(), warm.size()),
            jv.effects, 0);
        (void)inc.solve(vg, 0);
        const obs::MetricsSnapshot& rs = inc.last_metrics();
        ASSERT_EQ(rs.counter(CId::kRepairFullSolves), 0u) << what;
        EXPECT_EQ(rs.counter(CId::kRepairConeVertices), expected) << what;
        EXPECT_EQ(dijkstra(vg.graph(), 0).dist, inc.answer()) << what;
      }
    }
  }
}

TEST(IncrementalReprice, RepairLayersFitInItsWallTime) {
  // The cone walk, the engine's parallel phase and the publish are
  // disjoint slices of one repair, on the team and inline alike.
  VersionedGraph vg(make_shape("long_chain"));
  const VertexId source = pick_source(vg);
  Repairer inc(test_options());
  (void)inc.solve(vg, source);
  EXPECT_EQ(inc.last_metrics().counter(CId::kRepairWalkNs), 0u);
  EXPECT_EQ(inc.last_metrics().counter(CId::kRepairPublishNs), 0u);
  Xoshiro256 rng(0x1A7E5ULL);
  for (int b = 0; b < 8; ++b) {
    const GraphDelta delta = random_batch(vg, Mode::kMixed, rng, 6);
    if (delta.empty()) continue;
    (void)vg.apply(delta);
    const Timer wall;
    (void)inc.solve(vg, source);
    const double wall_seconds = wall.seconds();
    const obs::MetricsSnapshot& rs = inc.last_metrics();
    ASSERT_EQ(rs.counter(CId::kRepairFullSolves), 0u);
    EXPECT_GT(rs.counter(CId::kRepairWalkNs), 0u);
    EXPECT_GT(rs.counter(CId::kRepairPublishNs), 0u);
    EXPECT_GE(rs.seconds, 0.0);
    EXPECT_LE(layers_seconds(rs), wall_seconds) << "batch " << b;
  }
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
  // Directed, so each repair with a cone takes the boundary pass over the
  // graph's in-arc index; closures and reopenings never compact, so the
  // index is built once and must stay a superset of the live in-arcs.
  VersionedGraph vg(make_shape("rmat_dir"));
  const VertexId source = pick_source(vg);
  Repairer inc(test_options());
  (void)inc.solve(vg, source);
  Solver cold(test_options());

  Xoshiro256 rng(0xDEADA2CULL);
  std::deque<ArcSample> closed;
  int repairs = 0;
  std::uint64_t builds = 0;
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
    const Answer& repaired = inc.solve(vg, source);
    if (inc.last_metrics().counter(CId::kRepairFullSolves) == 0) ++repairs;
    builds += inc.last_metrics().counter(CId::kRepairInArcBuilds);
    ASSERT_EQ(cold.solve(rebuilt_csr(vg), source).dist, repaired)
        << "batch " << b;
  }
  EXPECT_EQ(repairs, batches);
  EXPECT_EQ(vg.compactions(), 0u);
  EXPECT_GT(vg.dead_arcs(), 0u);
  EXPECT_EQ(builds, 1u);
  EXPECT_EQ(vg.in_arc_builds(), 1u);
}

TEST(IncrementalDelta, TwoSolversShareOneInArcIndexPerCompaction) {
  // The in-arc index belongs to the graph: the first repair that walks a
  // cone builds it, a second Solver's repairs read the same one, and only a
  // compaction makes the next repair build it again. Each batch jams an arc
  // on a shortest path, so every repair walks a cone.
  VersionedGraph vg(make_shape("rmat_dir"));
  const VertexId source = pick_source(vg);
  Repairer first(test_options());
  Repairer second(test_options());
  (void)first.solve(vg, source);
  (void)second.solve(vg, source);
  EXPECT_EQ(vg.in_arc_builds(), 0u);  // cold solves build nothing
  EXPECT_EQ(vg.in_arc_bytes(), 0u);

  Xoshiro256 rng(0x1DE7ULL);
  // Repairs both Solvers; returns the index builds their reports count.
  const auto repair_both = [&](int batch) {
    std::uint64_t builds = 0;
    for (Repairer* inc : {&first, &second}) {
      const Answer& repaired = inc->solve(vg, source);
      const obs::MetricsSnapshot& m = inc->last_metrics();
      EXPECT_EQ(m.counter(CId::kRepairFullSolves), 0u) << "batch " << batch;
      EXPECT_GT(m.counter(CId::kRepairConeVertices), 0u) << "batch " << batch;
      EXPECT_EQ(repaired, dijkstra(vg.graph(), source).dist)
          << "batch " << batch;
      builds += m.counter(CId::kRepairInArcBuilds);
      if (m.counter(CId::kRepairInArcBuilds) == 0) {
        EXPECT_EQ(m.counter(CId::kRepairInArcBuildNs), 0u);
      }
    }
    return builds;
  };

  std::uint64_t builds = 0;
  for (int b = 0; b < 4; ++b) {
    GraphDelta delta;
    jam_tree_arc(vg, source, rng, delta);
    (void)vg.apply(delta);
    builds += repair_both(b);
  }
  EXPECT_EQ(builds, 1u);
  EXPECT_EQ(vg.in_arc_builds(), 1u);
  EXPECT_EQ(vg.compactions(), 0u);
  // The index is the graph's, not a Solver's: 8 B per arc plus offsets.
  EXPECT_GE(vg.in_arc_bytes(), vg.flat().num_edges() * sizeof(WEdge));

  // A genuinely new arc waits in the overlay, so the next graph() compacts
  // and drops the index; the next repair rebuilds it exactly once.
  VertexId u = 0;
  while (vg.out_neighbors(u).empty()) ++u;
  VertexId fresh = 0;
  const auto has_arc = [&](VertexId to) {
    for (const WEdge& e : vg.out_neighbors(u))
      if (e.dst == to) return true;
    return false;
  };
  while (fresh == u || has_arc(fresh)) ++fresh;
  GraphDelta structural;
  structural.insert(u, fresh, 7);
  jam_tree_arc(vg, source, rng, structural);
  (void)vg.apply(structural);
  EXPECT_TRUE(vg.dirty());
  EXPECT_EQ(repair_both(4), 1u);
  EXPECT_EQ(vg.compactions(), 1u);
  EXPECT_EQ(vg.in_arc_builds(), 2u);
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

// --- warm state: the answer a repair is handed ----------------------------

/// A non-empty mixed batch of up to `ops` random re-weights.
GraphDelta mixed_batch(const VersionedGraph& vg, std::uint64_t seed, int ops) {
  Xoshiro256 rng(seed);
  GraphDelta batch;
  while (batch.empty()) batch = random_batch(vg, Mode::kMixed, rng, ops);
  return batch;
}

TEST(IncrementalWarm, UnchangedVersionIsServedWithoutResolving) {
  VersionedGraph vg(make_shape("er"));
  Solver inc(test_options());
  const Answer first = inc.solve(vg, 3, {}, 0);
  EXPECT_EQ(inc.last_metrics().counter(CId::kRepairFullSolves), 1u);

  // An answer at the graph's version is the answer: the same buffer back.
  const Answer again = inc.solve(vg, 3, first, vg.version());
  EXPECT_EQ(inc.last_metrics().counter(CId::kRepairFullSolves), 0u);
  EXPECT_EQ(inc.last_metrics().counter(CId::kRepairBatches), 0u);
  EXPECT_EQ(again.data(), first.data());
}

TEST(IncrementalWarm, SourceChangeRepairsFromTheGivenAnswer) {
  // One solver, three sources, each repaired from its own answer, whoever
  // computed it. from7 is the last answer published, but the buffer one
  // publish behind it is from3's, which this test still holds, so every
  // repair copies its answer into a working buffer once (one epoch sweep
  // each) and publishes that buffer, never `from`'s.
  VersionedGraph vg(make_shape("er"));
  Solver inc(test_options());
  const std::uint64_t answered = vg.version();
  const Answer from3 = inc.solve(vg, 3, {}, 0);
  const Answer from7 = inc.solve(vg, 7, {}, 0);
  const Answer from11(dijkstra(vg.graph(), 11).dist);
  (void)vg.apply(mixed_batch(vg, 3, 6));

  for (const auto& [source, from] :
       {std::pair{VertexId{7}, from7}, std::pair{VertexId{3}, from3},
        std::pair{VertexId{11}, from11}}) {
    const Answer to = inc.solve(vg, source, from, answered);
    const obs::MetricsSnapshot& rs = inc.last_metrics();
    EXPECT_EQ(rs.counter(CId::kRepairFullSolves), 0u) << source;
    EXPECT_EQ(rs.counter(CId::kRepairBatches), 1u) << source;
    EXPECT_EQ(rs.counter(CId::kEpochSweeps), 1u) << source;
    EXPECT_EQ(rs.counter(CId::kRepairArrayCopies), 1u) << source;
    EXPECT_EQ(dijkstra(vg.graph(), source).dist, to) << source;
    EXPECT_NE(to.data(), from.data()) << source;
  }
}

TEST(IncrementalWarm, JournalTrimForcesFullSolve) {
  VersionedGraph vg(make_shape("grid"));
  vg.set_journal_limit(0);  // every batch is immediately unreachable
  Solver inc(test_options());
  const VertexId source = pick_source(vg);
  const Answer answer = inc.solve(vg, source, {}, 0);
  const std::uint64_t answered = vg.version();

  GraphDelta d;
  d.set_weight(0, 1, 77);
  (void)vg.apply(d);
  ASSERT_LT(answered, vg.journal_floor());
  const Answer dist = inc.solve(vg, source, answer, answered);
  EXPECT_EQ(inc.last_metrics().counter(CId::kRepairFullSolves), 1u);
  EXPECT_EQ(dijkstra(vg.graph(), source).dist, dist);
}

TEST(IncrementalWarm, BadAnswerInputsThrowInvalidOptions) {
  // A version the graph has not reached, or an answer sized for another
  // graph, is rejected before anything runs: the next repair still
  // patches the buffer one publish back. So is a source out of range, as
  // the cold door rejects it, on every path.
  VersionedGraph vg(make_shape("er"));
  Solver inc(test_options());
  Answer answer = inc.solve(vg, 3, {}, 0);
  (void)vg.apply(mixed_batch(vg, 4, 4));
  answer = inc.solve(vg, 3, answer, vg.version() - 1);  // frees the first
  const std::uint64_t answered = vg.version();
  EXPECT_THROW((void)inc.solve(vg, 3, answer, answered + 1),
               InvalidOptionsError);
  const Answer short_answer(std::vector<Distance>(vg.num_vertices() - 1, 0));
  EXPECT_THROW((void)inc.solve(vg, 3, short_answer, answered),
               InvalidOptionsError);
  EXPECT_THROW((void)inc.solve(vg, vg.num_vertices(), answer, answered),
               InvalidSourceError);

  (void)vg.apply(mixed_batch(vg, 5, 4));
  EXPECT_THROW((void)inc.solve(vg, vg.num_vertices(), answer, answered),
               InvalidSourceError);
  EXPECT_THROW((void)inc.solve(vg, vg.num_vertices(), {}, 0),
               InvalidSourceError);
  EXPECT_EQ(inc.solve(vg, 3, answer, answered), dijkstra(vg.graph(), 3).dist);
  EXPECT_EQ(inc.last_metrics().counter(CId::kRepairFullSolves), 0u);
  EXPECT_EQ(inc.last_metrics().counter(CId::kEpochSweeps), 0u);
  EXPECT_EQ(inc.last_metrics().counter(CId::kRepairRecycled), 1u);
}

/// Jams `src`'s arc to `dst` and checks the repair from `src`: exact, and
/// seeded from `src` alone with a cone of `cone` vertices.
void expect_jam_seeds_only_source(Graph graph, VertexId src, VertexId dst,
                                  std::uint64_t cone) {
  VersionedGraph vg(std::move(graph));
  Repairer inc(test_options());
  (void)inc.solve(vg, src);
  GraphDelta jam;
  jam.set_weight(src, dst, 50);
  (void)vg.apply(jam);
  const Answer& dist = inc.solve(vg, src);
  EXPECT_EQ(inc.last_metrics().counter(CId::kRepairFullSolves), 0u);
  EXPECT_EQ(inc.last_metrics().counter(CId::kRepairConeVertices), cone);
  EXPECT_EQ(inc.last_metrics().counter(CId::kRepairSeedVertices), 1u);
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
  VersionedGraph vg(comb());
  Solver inc(one_bucket_options());
  const Answer answer = comb_after_narrow_repair(inc, vg);
  const std::uint64_t answered = vg.version();

  // A cold solve on the same Solver takes the free buffer one publish back
  // and hands it out as its result: the next repair has nothing to patch
  // and copies its answer (one epoch sweep) instead of patching someone
  // else's distances.
  Graph other = make_shape("grid");
  (void)inc.solve(other, 0);
  (void)vg.apply(GraphDelta().set_weight(190, 191, 30));

  const Answer dist = inc.solve(vg, 0, answer, answered);
  EXPECT_EQ(inc.last_metrics().counter(CId::kRepairFullSolves), 0u);
  EXPECT_EQ(inc.last_metrics().counter(CId::kEpochSweeps), 1u);
  EXPECT_EQ(inc.last_metrics().counter(CId::kRepairRecycled), 0u);
  EXPECT_EQ(dijkstra(vg.graph(), 0).dist, dist);
}

TEST(IncrementalWarm, CancelledRepairThrowsAndLeavesSolverReusable) {
  VersionedGraph vg(comb());
  Solver inc(one_bucket_options());
  const Answer answer = comb_after_narrow_repair(inc, vg);
  const std::uint64_t answered = vg.version();
  (void)vg.apply(GraphDelta().set_weight(190, 191, 30));

  CancelToken token;
  token.request_cancel(CancelReason::kUser);
  inc.options().cancel = &token;
  EXPECT_THROW((void)inc.solve(vg, 0, answer, answered),
               SolveCancelledError);

  // A pre-fired token throws before the repair takes a buffer: the retry
  // still patches the one a publish back.
  inc.options().cancel = nullptr;
  const Answer dist = inc.solve(vg, 0, answer, answered);
  EXPECT_EQ(inc.last_metrics().counter(CId::kRepairFullSolves), 0u);
  EXPECT_EQ(inc.last_metrics().counter(CId::kEpochSweeps), 0u);
  EXPECT_EQ(inc.last_metrics().counter(CId::kRepairRecycled), 1u);
  EXPECT_EQ(dijkstra(vg.graph(), 0).dist, dist);
}

TEST(IncrementalWarm, EngineFailureAfterTheWalkDiscardsTheWarmState) {
  // The walk has stored re-priced bounds in the working buffer by the time
  // the engine runs; after an engine that throws, that buffer is freed
  // unpublished, and the next repair copies its answer instead of
  // patching those bounds.
  struct ThrowingObserver : obs::RunObserver {
    void on_termination(int /*tid*/) override {
      throw std::runtime_error("observer failed");
    }
  } throwing;
  VersionedGraph vg(comb());
  Solver inc(one_bucket_options());
  const Answer answer = comb_after_narrow_repair(inc, vg);
  const std::uint64_t answered = vg.version();
  GraphDelta jam;
  jam.set_weight(190, 191, 30);
  (void)vg.apply(jam);
  inc.options().observer = &throwing;
  EXPECT_THROW((void)inc.solve(vg, 0, answer, answered), std::runtime_error);

  inc.options().observer = nullptr;
  const Answer dist = inc.solve(vg, 0, answer, answered);
  EXPECT_EQ(inc.last_metrics().counter(CId::kRepairFullSolves), 0u);
  EXPECT_EQ(inc.last_metrics().counter(CId::kEpochSweeps), 1u);
  EXPECT_EQ(inc.last_metrics().counter(CId::kRepairRecycled), 0u);
  EXPECT_EQ(dijkstra(vg.graph(), 0).dist, dist);
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

// --- QueryService update gate: concurrent update-vs-query ------------------

service::ServiceConfig service_config() {
  service::ServiceConfig cfg;
  cfg.solver = test_options();
  cfg.num_solvers = 2;
  cfg.queue_capacity = 32;
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

TEST(IncrementalService, DirectedUpdateBuildsTheInArcIndexWhileQueriesRun) {
  // update() repairs with the service lock released while submits read
  // flat(), version() and uid(); on a directed graph the first repair that
  // walks a cone builds the graph's in-arc index meanwhile, a write no
  // submit reads (the tsan preset runs this). One build serves every
  // update, and the service folds its count.
  VersionedGraph vg(gen::rmat(10, 8192, 0.57, 0.19, 0.19,
                              WeightScheme::uniform(1, 100), 29,
                              /*undirected=*/false));
  const VertexId source = pick_source(vg);
  const VertexId other = vg.out_neighbors(source)[0].dst;
  service::QueryService svc(service_config());
  ASSERT_EQ(svc.solve(vg, {.source = source}).outcome,
            service::Outcome::kServed);

  std::atomic<bool> done{false};
  int served = 0;
  std::thread client([&] {
    while (!done.load()) {
      if (svc.solve(vg, {.source = other}).outcome ==
          service::Outcome::kServed)
        ++served;
    }
  });
  Xoshiro256 rng(0xD12ECULL);
  for (int k = 0; k < 4; ++k) {
    GraphDelta jam;
    jam_tree_arc(vg, source, rng, jam);
    (void)svc.update(vg, jam);
  }
  done.store(true);
  client.join();
  EXPECT_GT(served, 0);
  EXPECT_EQ(vg.in_arc_builds(), 1u);
  EXPECT_EQ(svc.metrics().counter(CId::kRepairInArcBuilds), 1u);
  EXPECT_EQ(svc.metrics().counter(CId::kRepairFullSolves), 0u);
  const service::QueryResult fresh = svc.solve(vg, {.source = source});
  ASSERT_EQ(fresh.outcome, service::Outcome::kServed);
  EXPECT_EQ(fresh.graph_version, vg.version());
  EXPECT_EQ(dijkstra(vg.graph(), source).dist, fresh.dist);
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
  // Every update repairs the cached entry from its own answer, the first
  // one too: the served answer is loaded into the repairer's array. The
  // service's counters fold each solve's report.
  (void)svc.update(vg, random_batch(vg, Mode::kMixed, rng, 8));
  EXPECT_EQ(svc.metrics().counter(CId::kRepairFullSolves), 0u);
  EXPECT_EQ(svc.metrics().counter(CId::kRepairBatches), 1u);
  (void)svc.update(vg, random_batch(vg, Mode::kMixed, rng, 8));
  EXPECT_EQ(svc.metrics().counter(CId::kRepairBatches), 2u);
  EXPECT_EQ(svc.metrics().counter(CId::kRepairFullSolves), 0u);

  // A structural batch through the service compacts inside the gate, which
  // counts the compactions once.
  (void)svc.update(vg, random_batch(vg, Mode::kStructural, rng, 6));
  EXPECT_GE(svc.metrics().counter(CId::kGraphCompactions), 1u);
  EXPECT_EQ(svc.metrics().counter(CId::kGraphCompactions), vg.compactions());
  EXPECT_GE(svc.metrics().counter(CId::kGraphCompactedArcs), 1u);

  const service::QueryResult fresh = svc.solve(vg, {.source = 5});
  ASSERT_EQ(fresh.outcome, service::Outcome::kServed);
  EXPECT_EQ(fresh.graph_version, vg.version());
  EXPECT_EQ(dijkstra(vg.graph(), 5).dist, fresh.dist);
}

TEST(IncrementalService, UpdateRepairsEveryCachedSource) {
  VersionedGraph vg(
      gen::erdos_renyi(1000, 5.0, WeightScheme::uniform(1, 64), 83));
  service::QueryService svc(service_config());
  const std::vector<VertexId> sources = {2, 17, 301, 640};
  for (const VertexId s : sources)
    ASSERT_EQ(svc.solve(vg, {.source = s}).outcome, service::Outcome::kServed);

  // One batch repairs each of the K cached answers from its own entry.
  (void)svc.update(vg, mixed_batch(vg, 87, 8));
  EXPECT_EQ(svc.metrics().counter(CId::kRepairFullSolves), 0u);
  EXPECT_EQ(svc.metrics().counter(CId::kRepairBatches), sources.size());
  for (const VertexId s : sources) {
    const service::QueryResult r = svc.solve(vg, {.source = s});
    ASSERT_EQ(r.outcome, service::Outcome::kServed) << s;
    EXPECT_EQ(r.attempts, 0) << s;
    EXPECT_EQ(r.graph_version, vg.version()) << s;
    EXPECT_EQ(dijkstra(vg.graph(), s).dist, r.dist) << s;
  }

  // Past the journal, the entries are older than its floor: each re-solves.
  vg.set_journal_limit(0);
  (void)svc.update(vg, mixed_batch(vg, 89, 8));
  EXPECT_EQ(svc.metrics().counter(CId::kRepairFullSolves), sources.size());
  EXPECT_EQ(svc.metrics().counter(CId::kRepairBatches), sources.size());
  for (const VertexId s : sources) {
    const service::QueryResult r = svc.solve(vg, {.source = s});
    EXPECT_EQ(r.attempts, 0) << s;
    EXPECT_EQ(dijkstra(vg.graph(), s).dist, r.dist) << s;
  }
}

TEST(IncrementalService, UpdateRepairsOnlyTheMostRecentEntries) {
  VersionedGraph vg(
      gen::erdos_renyi(1000, 5.0, WeightScheme::uniform(1, 64), 83));
  service::QueryService svc(service_config());
  // One more source than update() repairs; sources[0] is used least
  // recently.
  std::vector<VertexId> sources;
  for (VertexId s = 0; s <= service::kUpdateRepairs; ++s)
    sources.push_back(s * 50 + 3);
  for (const VertexId s : sources)
    ASSERT_EQ(svc.solve(vg, {.source = s}).outcome, service::Outcome::kServed);

  (void)svc.update(vg, mixed_batch(vg, 87, 8));
  EXPECT_EQ(svc.metrics().counter(CId::kRepairBatches),
            service::kUpdateRepairs);
  // The oldest entry is dropped, not left behind at the old version.
  EXPECT_EQ(svc.metrics().gauge(obs::GaugeId::kCacheEntries),
            service::kUpdateRepairs);
  EXPECT_EQ(svc.metrics().counter(CId::kRepairFullSolves), 0u);
  for (std::size_t k = 1; k < sources.size(); ++k) {
    const service::QueryResult r = svc.solve(vg, {.source = sources[k]});
    ASSERT_EQ(r.outcome, service::Outcome::kServed) << sources[k];
    EXPECT_EQ(r.attempts, 0) << sources[k];
    EXPECT_EQ(r.graph_version, vg.version()) << sources[k];
    EXPECT_EQ(dijkstra(vg.graph(), sources[k]).dist, r.dist) << sources[k];
  }
  // Dropped, so it re-solves.
  const service::QueryResult oldest = svc.solve(vg, {.source = sources[0]});
  ASSERT_EQ(oldest.outcome, service::Outcome::kServed);
  EXPECT_GE(oldest.attempts, 1);
  EXPECT_EQ(oldest.graph_version, vg.version());
  EXPECT_EQ(dijkstra(vg.graph(), sources[0]).dist, oldest.dist);
}

TEST(IncrementalService, ReadersDropAnswersWhileUpdatesRecycle) {
  // A reader thread queries the hot source in a loop, reads each answer
  // once (a checksum) and drops it, while updates repair that answer and
  // rewrite the buffers the reader released. A buffer rewritten while the
  // reader still read it would be a data race (TSan) and a wrong checksum.
  VersionedGraph vg(gen::grid(48, 48, WeightScheme::uniform(1, 100), 59));
  const VertexId source = pick_source(vg);
  service::QueryService svc(service_config());
  ASSERT_EQ(svc.solve(vg, {.source = source}).outcome,
            service::Outcome::kServed);

  const auto checksum = [](std::span<const Distance> dist) {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (const Distance d : dist) h = (h ^ d) * 0x100000001B3ULL;
    return h;
  };
  std::atomic<bool> done{false};
  std::vector<std::pair<std::uint64_t, std::uint64_t>> seen;  // version, sum
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const service::QueryResult r = svc.solve(vg, {.source = source});
      ASSERT_EQ(r.outcome, service::Outcome::kServed);
      seen.emplace_back(r.graph_version, checksum(r.dist));
    }
  });

  // References per version, computed by this (the only updating) thread.
  std::map<std::uint64_t, std::uint64_t> expected;
  expected[vg.version()] = checksum(dijkstra(vg.graph(), source).dist);
  Xoshiro256 rng(61);
  for (int k = 0; k < 30; ++k) {
    const GraphDelta delta = random_batch(vg, Mode::kMixed, rng, 2);
    if (delta.empty()) continue;
    const std::uint64_t v = svc.update(vg, delta);
    expected[v] = checksum(dijkstra(vg.graph(), source).dist);
  }
  done.store(true, std::memory_order_release);
  reader.join();

  ASSERT_FALSE(seen.empty());
  for (const auto& [version, sum] : seen) {
    const auto it = expected.find(version);
    ASSERT_NE(it, expected.end()) << "answer at unknown version " << version;
    EXPECT_EQ(it->second, sum) << "answer at version " << version;
  }
  EXPECT_GT(svc.metrics().counter(obs::CounterId::kRepairRecycled), 0u);
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
    // Holds the first run to end after `hold` is set, in on_termination
    // (every Wasp worker fires it once per run), until an update() is
    // under way, and then for the margin.
    struct Holder final : obs::RunObserver {
      void on_termination(int /*tid*/) override {
        if (!hold.exchange(false)) return;
        while (!updating.load()) std::this_thread::yield();
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      std::atomic<bool> hold{false};
      std::atomic<bool> updating{false};
    } holder;
    service::ServiceConfig cfg = service_config();
    cfg.num_solvers = 1;
    cfg.solver.observer = &holder;
    service::QueryService svc(cfg);
    ASSERT_EQ(svc.solve(vg, {.source = 9}).outcome, service::Outcome::kServed);
    // Put the cached answer one version behind, so the submit below misses
    // and queues.
    Xoshiro256 rng(79);
    (void)vg.apply(random_batch(vg, Mode::kDecrease, rng, 20));
    const GraphDelta batch = random_batch(vg, Mode::kMixed, rng, 8);
    const std::uint64_t before = vg.version();
    const std::vector<Distance> ref_before = dijkstra(vg.graph(), 9).dist;

    holder.hold = true;
    const auto held = svc.submit(vg, {.source = 10});
    const auto queued = svc.submit(vg, {.source = 9});
    std::uint64_t v = 0;
    std::thread updater([&] {
      holder.updating = true;
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
