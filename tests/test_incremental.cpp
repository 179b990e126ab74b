// Incremental SSSP repair over versioned graphs (graph/delta.hpp +
// sssp/incremental.hpp). The correctness anchor, bit-identical distances vs
// a from-scratch solve after every batch of every stream kind, is the
// delta-stream axis of test_differential.cpp. This file pins the published
// answers (patched from the engine's log, never rewritten while held,
// recycled once released), the re-priced
// repair cone (its work, nested heads, the zero-weight fallback and the
// cone's own seeds), the VersionedGraph contract
// (atomic validation, journal semantics, compaction on demand), every
// warm-state fallback path, and the QueryService update gate: concurrent
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

SsspOptions test_options() {
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 2;
  options.delta = 16;
  return options;
}

/// Undirected grid, chains and Erdős–Rényi plus a directed R-MAT (which
/// exercises the cached-transpose boundary walk), small enough for a
/// per-batch Dijkstra cross-check under TSan.
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

// --- published answers: patched from the engine's log, never rewritten
// --- while held -------------------------------------------------------------

/// kUpdates of the repairer's last run (the registry is reset per repair).
std::uint64_t run_updates(IncrementalSolver& inc) {
  return inc.solver().metrics().snapshot().counter(obs::CounterId::kUpdates);
}

/// Vertices the repairer's last run processed (both runs of an escalated
/// repair).
std::uint64_t run_processed(IncrementalSolver& inc) {
  return inc.solver().metrics().snapshot().counter(
      obs::CounterId::kVerticesProcessed);
}

/// The checks every published repair must pass: the answer is exact, it is
/// what the warm array holds, and the log holds every lowering of the run.
void expect_published_answer(IncrementalSolver& inc, const Graph& g,
                             VertexId source, const std::string& what) {
  const Answer answer = inc.answer();
  ASSERT_FALSE(answer.empty()) << what;
  EXPECT_EQ(dijkstra(g, source).dist, answer) << what;
  const AtomicDistances* warm = inc.solver().distances().current();
  ASSERT_NE(warm, nullptr) << what;
  EXPECT_EQ(warm->snapshot(), answer) << what;
  const RepairStats& rs = inc.last_repair();
  if (!rs.full_solve) {
    EXPECT_EQ(rs.lowered, run_updates(inc)) << what;
  }
}

TEST(IncrementalAnswer, RepairsPublishExactImmutableAnswers) {
  int patched = 0;
  int decoded = 0;
  int inline_runs = 0;
  int escalated = 0;
  for (const char* shape : {"grid", "chain", "rmat_dir", "long_chain"}) {
    for (const Mode mode : {Mode::kMixed, Mode::kStructural}) {
      const std::string name = std::string(shape) + "/" + to_name(mode);
      VersionedGraph vg(make_shape(shape));
      const VertexId source = pick_source(vg);
      IncrementalSolver inc(test_options());
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
        const RepairStats& rs = inc.last_repair();
        if (!rs.full_solve) {
          ++(rs.patched ? patched : decoded);
          // The width follows the work done: a repair escalates to the
          // team exactly when its inline run paused at the budget with work
          // left, so it processed more than the budget in all.
          EXPECT_EQ(rs.workers, run_processed(inc) > kInlineRepairWork
                                    ? inc.solver().team().size()
                                    : 1)
              << what;
          ++(rs.workers == 1 ? inline_runs : escalated);
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
  // Both publishing paths ran, and repairs both stayed inline and
  // escalated to the team.
  EXPECT_GT(patched, 0);
  EXPECT_GT(decoded, 0);
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

TEST(IncrementalAnswer, LargeConeFewSeedsRepairsInline) {
  // Jamming the third arc of a 3,000-vertex chain re-prices the whole tail,
  // a cone far past kInlineRepairWork, yet no bound can improve: the
  // engine processes only the seeds, so the repair never wakes the team.
  VersionedGraph vg(make_shape("long_chain"));
  IncrementalSolver inc(test_options());
  (void)inc.solve(vg, 0);
  GraphDelta jam;
  jam.set_weight(2, 3, 500);
  (void)vg.apply(jam);
  (void)inc.solve(vg, 0);
  const RepairStats& rs = inc.last_repair();
  ASSERT_FALSE(rs.full_solve);
  EXPECT_GT(rs.cone_vertices, kInlineRepairWork);
  EXPECT_LE(run_processed(inc), kInlineRepairWork);
  EXPECT_EQ(rs.workers, 1);
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
  IncrementalSolver inc(test_options());
  (void)inc.solve(vg, 0);
  const Distance before = inc.answer()[vg.num_vertices() - 1];
  TerminationCounter counter;
  inc.options().observer = &counter;
  GraphDelta drop;
  drop.set_weight(1, 2, 1);
  (void)vg.apply(drop);
  (void)inc.solve(vg, 0);
  const RepairStats& rs = inc.last_repair();
  ASSERT_FALSE(rs.full_solve);
  EXPECT_EQ(rs.cone_vertices, 0u);
  EXPECT_GT(run_processed(inc), kInlineRepairWork);
  EXPECT_EQ(rs.workers, 2);
  EXPECT_GT(rs.lowered, kInlineRepairWork);
  EXPECT_LE(run_processed(inc), rs.lowered + rs.seed_vertices);
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
  EXPECT_EQ(inc.last_repair().workers, 1);
  EXPECT_EQ(counter.terminations.load(), 1);
  expect_published_answer(inc, vg.graph(), 0, "long chain tail drop");
  inc.options().observer = nullptr;

  // A one-thread Solver has no team to escalate to: the same drop runs
  // inline to the end.
  VersionedGraph solo_vg(make_shape("long_chain"));
  SsspOptions solo_options = test_options();
  solo_options.threads = 1;
  IncrementalSolver solo(solo_options);
  (void)solo.solve(solo_vg, 0);
  (void)solo_vg.apply(drop);
  (void)solo.solve(solo_vg, 0);
  ASSERT_FALSE(solo.last_repair().full_solve);
  EXPECT_GT(run_processed(solo), kInlineRepairWork);
  EXPECT_EQ(solo.last_repair().workers, 1);
  expect_published_answer(solo, solo_vg.graph(), 0, "one-thread drop");
}

/// Undirected path 0-1-...-199 (weight 3) with a pendant leaf 200 on vertex
/// 195, for repairs from source 0. A quarter of its 201 vertices is 50, so
/// a change near the far end is patched and one near the source is not.
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

TEST(IncrementalAnswer, WideConeDecodesTheWholeArray) {
  GraphDelta cut;
  cut.erase(10, 11);  // a cone of 190 > 50
  const RepairStats rs = repair_comb(cut);
  EXPECT_EQ(rs.cone_vertices, 190u);
  EXPECT_EQ(rs.lowered, 0u);
  EXPECT_FALSE(rs.patched);
  EXPECT_EQ(rs.published_entries, 201u);
}

TEST(IncrementalAnswer, WideLogDecodesAfterLogging) {
  GraphDelta drop;
  drop.set_weight(10, 11, 1);  // no cone, but 190 vertices lowered
  const RepairStats rs = repair_comb(drop);
  EXPECT_EQ(rs.cone_vertices, 0u);
  EXPECT_GT(rs.lowered, 50u);
  EXPECT_FALSE(rs.patched);
}

// --- recycled buffers: a released answer is rewritten, a held one never ---

/// What a repair that patched the buffer one publish behind writes: the
/// previous repair's change set and its own.
std::uint64_t two_change_sets(const RepairStats& previous,
                              const RepairStats& current) {
  return previous.cone_vertices + previous.lowered + current.cone_vertices +
         current.lowered;
}

TEST(IncrementalAnswer, HeldAnswersStayExactWhileReleasedOnesAreRecycled) {
  // A reader keeps each published answer for 0 to 6 further publishes
  // (cycling) and then drops it. Every answer it still holds must read as
  // its own version's reference. A patched repair whose buffer one publish
  // behind was released rewrites only the two change sets (while they fit
  // the patch limit); one whose buffer is still held copies the previous
  // answer whole.
  VersionedGraph vg(gen::grid(64, 64, WeightScheme::uniform(1, 100), 37));
  const VertexId source = pick_source(vg);
  const std::uint64_t n = vg.num_vertices();
  IncrementalSolver inc(test_options());
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
  RepairStats previous = inc.last_repair();
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
    const RepairStats rs = inc.last_repair();
    ASSERT_FALSE(rs.full_solve) << what;
    if (rs.patched && previous.patched && !behind_held &&
        two_change_sets(previous, rs) <= n / kPatchShare) {
      EXPECT_TRUE(rs.recycled) << what;
      EXPECT_EQ(rs.published_entries, two_change_sets(previous, rs)) << what;
      ++recycled;
    } else if (rs.patched) {
      EXPECT_FALSE(rs.recycled) << what;
      EXPECT_EQ(rs.published_entries, n + rs.cone_vertices + rs.lowered)
          << what;
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
    IncrementalSolver inc(one_bucket_options());
    kept.push_back(inc.solve(vg, 0));
    GraphDelta drop;
    drop.set_weight(196, 197, 1);
    (void)vg.apply(drop);
    kept.push_back(inc.solve(vg, 0));
    ASSERT_FALSE(inc.last_repair().full_solve);
  }
  EXPECT_EQ(dijkstra(vg.graph(), 0).dist, kept.back());
  EXPECT_NE(kept.front(), kept.back());
  kept.clear();
}

TEST(IncrementalAnswer, RecycledRepairWritesTheTwoChangeSetsAtAnyN) {
  // Drops near the far end of a comb lower the same few vertices at any
  // length. The first repair after the full solve copies the answer (n
  // plus its change set); each later one patches the buffer one publish
  // behind with only the two change sets, so the same repairs write the
  // same entries at n = 201 and 2,001, and a repair that changes nothing
  // writes just the previous change set.
  std::vector<std::uint64_t> written[2];
  for (int i = 0; i < 2; ++i) {
    const VertexId path = i == 0 ? 200 : 2000;
    VersionedGraph vg(comb(path));
    IncrementalSolver inc(one_bucket_options());
    (void)inc.solve(vg, 0);
    GraphDelta first;
    first.set_weight(path - 4, path - 3, 2);
    GraphDelta second;
    second.set_weight(path - 2, path - 1, 1);
    GraphDelta nothing;
    nothing.insert(0, 2, 100);  // seeds 0 and 2, lowers nothing
    RepairStats previous;
    int k = 0;
    for (const GraphDelta* batch : {&first, &second, &nothing}) {
      const std::string what =
          "n " + std::to_string(path + 1) + " repair " + std::to_string(k);
      (void)vg.apply(*batch);
      (void)inc.solve(vg, 0);
      expect_published_answer(inc, vg.graph(), 0, what);
      const RepairStats rs = inc.last_repair();
      ASSERT_TRUE(rs.patched) << what;
      EXPECT_EQ(rs.recycled, k > 0) << what;
      if (k == 0) {
        EXPECT_EQ(rs.published_entries,
                  path + 1 + rs.cone_vertices + rs.lowered)
            << what;
      } else {
        EXPECT_EQ(rs.published_entries, two_change_sets(previous, rs))
            << what;
        written[i].push_back(rs.published_entries);
      }
      previous = rs;
      ++k;
    }
    EXPECT_EQ(previous.cone_vertices + previous.lowered, 0u);
  }
  EXPECT_EQ(written[0], written[1]);
  EXPECT_GT(written[0].front(), 0u);
}

// --- re-priced cones: each cone vertex keeps its old tree path's price ---

/// Solves `vg` from `source` with `inc`, applies `batches` in turn, and
/// repairs once; checks the answer against Dijkstra.
void repair_after(IncrementalSolver& inc, VersionedGraph& vg, VertexId source,
                  const std::vector<GraphDelta>& batches,
                  const std::string& what) {
  (void)inc.solve(vg, source);
  for (const GraphDelta& batch : batches) (void)vg.apply(batch);
  (void)inc.solve(vg, source);
  ASSERT_FALSE(inc.last_repair().full_solve) << what;
  EXPECT_EQ(inc.last_repair().batches, batches.size()) << what;
  expect_published_answer(inc, vg.graph(), source, what);
}

TEST(IncrementalReprice, TreeJamRepricesTheSubtreeWithoutUpdates) {
  // Jamming 190-191 raises 191..199 and the pendant by exactly the jam, and
  // no other path reaches them: the re-priced cone is already the answer.
  VersionedGraph vg(comb());
  IncrementalSolver inc(one_bucket_options());
  GraphDelta jam;
  jam.set_weight(190, 191, 30);
  repair_after(inc, vg, 0, {jam}, "comb jam");
  const RepairStats& rs = inc.last_repair();
  EXPECT_EQ(rs.cone_vertices, 10u);
  EXPECT_FALSE(rs.cone_reset);
  EXPECT_EQ(run_updates(inc), 0u);
  EXPECT_EQ(rs.lowered, 0u);
  EXPECT_TRUE(rs.patched);

  // Two raises of one arc caught up at once: only the first is admissible
  // under the warm distances, but the head must be priced at the second.
  VersionedGraph vg2(comb());
  IncrementalSolver inc2(one_bucket_options());
  GraphDelta raise;
  raise.set_weight(190, 191, 10);
  GraphDelta raise_again;
  raise_again.set_weight(190, 191, 40);
  repair_after(inc2, vg2, 0, {raise, raise_again}, "comb raised twice");
  EXPECT_EQ(inc2.last_repair().cone_vertices, 10u);
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
    IncrementalSolver inc(one_bucket_options());
    repair_after(inc, vg, 0, batches, name);
    const RepairStats& rs = inc.last_repair();
    EXPECT_EQ(rs.cone_vertices, 20u) << name;  // 181..199 and the pendant
    EXPECT_FALSE(rs.cone_reset) << name;
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
    IncrementalSolver inc(test_options());
    repair_after(inc, vg, 0, batches, name);
    EXPECT_FALSE(inc.last_repair().cone_reset) << name;
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
    IncrementalSolver inc(test_options());
    GraphDelta jams;
    jams.set_weight(0, 2, 50);
    jams.set_weight(2, 1, 1);
    repair_after(inc, vg, 0, {jams}, name);
    EXPECT_TRUE(inc.last_repair().cone_reset) << name;
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
    IncrementalSolver inc(test_options());
    GraphDelta jams;
    jams.set_weight(0, 1, 100);
    jams.set_weight(0, 3, 3);
    repair_after(inc, vg, 0, {jams}, name);
    const RepairStats& rs = inc.last_repair();
    EXPECT_EQ(rs.cone_vertices, 5u) << name;
    EXPECT_FALSE(rs.cone_reset) << name;
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
      IncrementalSolver inc(test_options());
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
        ASSERT_FALSE(inc.last_repair().full_solve) << what;
        EXPECT_EQ(inc.last_repair().cone_vertices, expected) << what;
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
  IncrementalSolver inc(test_options());
  (void)inc.solve(vg, source);
  EXPECT_EQ(inc.last_repair().walk_seconds, 0.0);
  EXPECT_EQ(inc.last_repair().publish_seconds, 0.0);
  Xoshiro256 rng(0x1A7E5ULL);
  for (int b = 0; b < 8; ++b) {
    const GraphDelta delta = random_batch(vg, Mode::kMixed, rng, 6);
    if (delta.empty()) continue;
    (void)vg.apply(delta);
    const Timer wall;
    (void)inc.solve(vg, source);
    const double wall_seconds = wall.seconds();
    const RepairStats& rs = inc.last_repair();
    ASSERT_FALSE(rs.full_solve);
    EXPECT_GT(rs.walk_seconds, 0.0);
    EXPECT_GT(rs.publish_seconds, 0.0);
    EXPECT_GE(rs.seconds, 0.0);
    EXPECT_LE(rs.walk_seconds + rs.seconds + rs.publish_seconds,
              wall_seconds)
        << "batch " << b;
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
    const Answer& repaired = inc.solve(vg, source);
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
  const Answer first = inc.solve(vg, 3);
  EXPECT_TRUE(inc.last_repair().full_solve);

  const Answer& again = inc.solve(vg, 3);
  EXPECT_FALSE(inc.last_repair().full_solve);
  EXPECT_EQ(inc.last_repair().batches, 0u);
  EXPECT_EQ(first, again);
}

TEST(IncrementalWarm, SourceChangeFallsBackToFullSolve) {
  VersionedGraph vg(make_shape("er"));
  IncrementalSolver inc(test_options());
  (void)inc.solve(vg, 3);
  const Answer& other = inc.solve(vg, 7);
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
  const Answer& dist = inc.solve(vg, source);
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
  const Answer& dist = inc.solve(vg, src);
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

  // Using the owned Solver directly moves the pool generation: the warm
  // contract is broken and the next solve must detect it instead of
  // repairing on top of someone else's distances.
  Graph other = make_shape("grid");
  (void)inc.solver().solve(other, 0);

  Xoshiro256 rng(5);
  GraphDelta batch;
  while (batch.empty()) batch = random_batch(vg, Mode::kMixed, rng, 4);
  (void)vg.apply(batch);

  const Answer& dist = inc.solve(vg, source);
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
  const Answer& dist = inc.solve(vg, source);
  EXPECT_TRUE(inc.last_repair().full_solve);  // warm state was discarded
  EXPECT_EQ(dijkstra(vg.graph(), source).dist, dist);
}

TEST(IncrementalWarm, EngineFailureAfterTheWalkDiscardsTheWarmState) {
  // The walk has stored re-priced bounds in the array by the time the
  // engine runs; an engine that throws must leave the next solve cold.
  struct ThrowingObserver : obs::RunObserver {
    void on_termination(int /*tid*/) override {
      throw std::runtime_error("observer failed");
    }
  } throwing;
  VersionedGraph vg(comb());
  IncrementalSolver inc(one_bucket_options());
  (void)inc.solve(vg, 0);
  GraphDelta jam;
  jam.set_weight(190, 191, 30);
  (void)vg.apply(jam);
  inc.options().observer = &throwing;
  EXPECT_THROW((void)inc.solve(vg, 0), std::runtime_error);

  inc.options().observer = nullptr;
  const Answer& dist = inc.solve(vg, 0);
  EXPECT_TRUE(inc.last_repair().full_solve);
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

TEST(IncrementalWarm, GraphRebuiltAtSameAddressFallsBackToFullSolve) {
  VersionedGraph vg(make_shape("er"));
  IncrementalSolver inc(test_options());
  const VertexId source = pick_source(vg);
  (void)inc.solve(vg, source);

  // Allocator-reuse ABA: a *different* graph takes over the bound object's
  // address (move-assignment re-stamps vg in place) with the same vertex
  // count, an untouched pool generation, and a version no older than the
  // bound one — everything an address + version heuristic would mistake for
  // warm state. Only the uid tells them apart.
  VersionedGraph other(
      gen::erdos_renyi(1600, 6.0, WeightScheme::uniform(1, 100), 99));
  Xoshiro256 rng(5);
  (void)other.apply(random_batch(other, Mode::kMixed, rng, 6));
  ASSERT_GE(other.version(), vg.version());
  vg = std::move(other);

  const Answer& dist = inc.solve(vg, source);
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
