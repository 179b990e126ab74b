// The differential harness. SSSP distances are a unique fixed point, so
// every Solver configuration, on any schedule, must return exactly
// dijkstra()'s answer. A case is a pure function of a 64-bit seed that picks
// one value on every axis of axes(): generator, algorithm, threads, Δ, ρ,
// the Wasp knobs, delta stream and cancel point. Streams
// replay through the Solver's versioned solve() and are checked after every
// batch; a
// cancelled first solve is followed by a re-solve on the same Solver. Every
// batch repairs two sources on one solver, each from the answer the test
// holds for it: one on the array the solver left warm, one loaded into it.
//
// Seeds below kPinnedCases are pinned: seed i takes value i mod |A| on each
// shared axis A and (i / |algorithms|) mod |A| on each Wasp-only axis, so
// every value of every axis runs. Later seeds draw at random.
// Each seed is one gtest instance, and a failure prints the seed, the
// decoded case and the filter that re-runs it:
//   test_differential --gtest_filter=Differential/Seed.MatchesDijkstra/<seed>
//
// The last section keeps the names of the per-suite sweeps this harness
// replaced; each runs its old configurations through check().
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <deque>
#include <functional>
#include <iterator>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "graph/suite.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/solver.hpp"
#include "sssp/validate.hpp"
#include "support/cancel.hpp"
#include "support/errors.hpp"
#include "support/numa.hpp"
#include "support/random.hpp"

namespace wasp {
namespace {

// The TSan and verify builds, where schedules vary most, run three times the
// cases.
#if defined(__SANITIZE_THREAD__) || \
    (defined(WASP_VERIFY_ENABLED) && WASP_VERIFY_ENABLED)
constexpr std::uint64_t kCases = 1536;
#else
constexpr std::uint64_t kCases = 512;
#endif
/// More than the values of any shared axis, and 9 pinned Wasp cases (seed
/// 7 mod 8 among the 8 algorithms): their Wasp-only axes step with
/// seed / 8 = 0..8, so each of at most 8 values lands on one of them.
constexpr std::uint64_t kPinnedCases = 77;
constexpr int kBatches = 4;
constexpr int kBatchOps = 8;
constexpr double kSuiteScale = 0.02;

enum class Stream {
  kNone, kDecrease, kIncrease, kMixed, kStructural, kCloseReopen
};

struct Case {
  std::uint64_t seed = 0;
  int generator = 0;
  SsspOptions options;   ///< every knob but the topology
  int topology = 0;      ///< index into kTopologies
  Stream stream = Stream::kNone;
  bool cancel = false;
};

// --- generators -------------------------------------------------------------

struct Shape {
  const char* name;
  Graph (*make)();
};

/// Fixed shapes, each on a different code path: deep buckets, hub
/// decomposition, leaves, skew, directed and undirected, unit and normal
/// weights. The last is big enough (20,000 vertices) for the asynchronous
/// algorithms' every-4096-vertices progress callback, and so a cancel, to
/// land mid-solve.
const Shape kShapes[] = {
    {"grid", [] { return gen::grid(40, 40, WeightScheme::gap(), 11); }},
    {"chain",
     [] { return gen::chain_forest(4, 300, WeightScheme::gap(), 12); }},
    {"star",
     [] { return gen::star_hub(3000, 0.93, 0.01, WeightScheme::gap(), 13); }},
    {"rmat_directed",
     [] {
       return gen::rmat(11, 16384, 0.57, 0.19, 0.19, WeightScheme::gap(), 14,
                        false);
     }},
    {"rmat_undirected",
     [] {
       return gen::rmat(11, 16384, 0.57, 0.19, 0.19, WeightScheme::gap(), 15,
                        true);
     }},
    {"er", [] { return gen::erdos_renyi(3000, 8.0, WeightScheme::gap(), 16); }},
    {"unit_weights",
     [] { return gen::grid(30, 30, WeightScheme::unit(), 17); }},
    {"normal_weights",
     [] {
       return gen::random_regular(
           2000, 6, WeightScheme::truncated_normal(1.0, 0.5), 18);
     }},
    {"er_large",
     [] { return gen::erdos_renyi(20000, 8.0, WeightScheme::gap(), 29); }},
};
constexpr int kNumShapes = static_cast<int>(std::size(kShapes));
/// Generator index of the seeded random multigraph; suite classes follow.
constexpr int kRandomGenerator = kNumShapes;

const std::vector<suite::GraphClass>& suite_classes() {
  static const std::vector<suite::GraphClass> all = [] {
    std::vector<suite::GraphClass> v = suite::main_suite();
    for (const suite::GraphClass cls : suite::appendix_suite())
      v.push_back(cls);
    return v;
  }();
  return all;
}

int suite_generator(suite::GraphClass cls) {
  const auto& all = suite_classes();
  return kRandomGenerator + 1 +
         static_cast<int>(std::find(all.begin(), all.end(), cls) - all.begin());
}

suite::GraphClass suite_class(int generator) {
  return suite_classes()[static_cast<std::size_t>(generator -
                                                  kRandomGenerator - 1)];
}

/// A random multigraph: possibly disconnected, with parallel and
/// zero-weight arcs, never arc-free.
Graph random_multigraph(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const auto n = static_cast<VertexId>(rng.next_in(2, 400));
  const double avg_degree = 0.5 + rng.next_double() * 8.0;
  const bool undirected = rng.next() % 2 == 0;
  const auto max_w =
      static_cast<Weight>(rng.next_in(1, 1u << (rng.next() % 12)));
  const Weight min_w = rng.next() % 4 == 0 ? 0 : 1;
  const auto m = std::max<std::size_t>(
      1, static_cast<std::size_t>(avg_degree * n / (undirected ? 2 : 1)));
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < m; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    const auto v = static_cast<VertexId>((u + 1 + rng.next_below(n - 1)) % n);
    edges.push_back({u, v, static_cast<Weight>(rng.next_in(min_w, max_w))});
  }
  return GraphBuilder()
      .edges(n, std::move(edges))
      .undirected(undirected)
      .build();
}

Graph make_graph(const Case& c) {
  if (c.generator < kNumShapes) return kShapes[c.generator].make();
  if (c.generator == kRandomGenerator) return random_multigraph(c.seed);
  return suite::make(suite_class(c.generator), kSuiteScale, 5).graph;
}

std::string generator_name(int generator) {
  if (generator < kNumShapes) return kShapes[generator].name;
  if (generator == kRandomGenerator) return "random";
  return suite::abbr(suite_class(generator));
}

// --- axes -------------------------------------------------------------------

constexpr Algorithm kAlgorithms[] = {
    Algorithm::kDijkstra,    Algorithm::kDeltaStepping,
    Algorithm::kJulienne,    Algorithm::kDeltaStar,
    Algorithm::kRhoStepping, Algorithm::kMqDijkstra,
    Algorithm::kObim,        Algorithm::kWasp};
constexpr bool kBools[] = {false, true};
constexpr int kThreads[] = {1, 2, 3, 4, 8};
constexpr Weight kDeltas[] = {1, 2, 16, 64, 255, 1024};
constexpr std::uint64_t kRhos[] = {1, 64, 1u << 14};
constexpr std::uint32_t kThetas[] = {8, 64, 256, 1u << 20};
constexpr StealPolicy kStealPolicies[] = {
    StealPolicy::kPriorityNuma, StealPolicy::kRandom, StealPolicy::kTwoChoice};
constexpr int kStealRetries[] = {0, 1, 8};
constexpr std::uint32_t kChunkCapacities[] = {16, 32, 64, 128, 256};
/// {sockets, nodes per socket, cpus per node}; all zero = detect the host.
constexpr int kTopologies[][3] = {
    {0, 0, 0}, {1, 1, 8}, {1, 2, 4}, {2, 2, 2}, {4, 1, 2}};
/// Partition fragment counts; -1 = flat engine, 0 = one per NUMA node.
constexpr int kFragments[] = {-1, 0, 1, 2, 3, 8};
constexpr std::uint32_t kFlushThresholds[] = {4, 16, 64, 256};
constexpr Stream kStreams[] = {Stream::kNone,       Stream::kDecrease,
                               Stream::kIncrease,   Stream::kMixed,
                               Stream::kStructural, Stream::kCloseReopen};

std::string show(bool b) { return b ? "on" : "off"; }
std::string show(Algorithm a) { return to_string(a); }
std::string show(StealPolicy p) {
  constexpr const char* kNames[] = {"priority-numa", "random", "two-choice"};
  return kNames[static_cast<int>(p)];
}
std::string show(Stream s) {
  constexpr const char* kNames[] = {"none",  "decrease",   "increase",
                                    "mixed", "structural", "close-reopen"};
  return kNames[static_cast<int>(s)];
}
std::string show(std::integral auto v) { return std::to_string(v); }

std::shared_ptr<const NumaTopology> make_topology(int i) {
  const int* t = kTopologies[i];
  if (t[0] == 0) return nullptr;
  return std::make_shared<const NumaTopology>(
      NumaTopology::synthetic(t[0], t[1], t[2]));
}

struct Axis {
  const char* name;
  int size;
  bool wasp_only;  ///< only a Wasp run reads it
  std::function<void(Case&, int)> set;
  std::function<std::string(Case)> show;
};

/// The axis over `values`, stored in the field `field(case)` returns.
template <class T, std::size_t N, class Field>
Axis axis(const char* name, const T (&values)[N], Field field,
          bool wasp_only = false) {
  return {name, static_cast<int>(N), wasp_only,
          [&values, field](Case& c, int i) { field(c) = values[i]; },
          [field](Case c) { return show(field(c)); }};
}

const std::vector<Axis>& axes() {
  using C = Case&;
  static const std::vector<Axis> all = {
      {"generator",
       kRandomGenerator + 1 + static_cast<int>(suite_classes().size()), false,
       [](C c, int i) { c.generator = i; },
       [](Case c) { return generator_name(c.generator); }},
      axis("algo", kAlgorithms, [](C c) -> auto& { return c.options.algo; }),
      axis("threads", kThreads, [](C c) -> auto& { return c.options.threads; }),
      axis("delta", kDeltas, [](C c) -> auto& { return c.options.delta; }),
      axis("rho", kRhos, [](C c) -> auto& { return c.options.stepping.rho; }),
      axis("leaf_pruning", kBools,
           [](C c) -> auto& { return c.options.wasp.leaf_pruning; }, true),
      axis("bidirectional", kBools,
           [](C c) -> auto& { return c.options.wasp.bidirectional_relaxation; },
           true),
      axis("decomposition", kBools,
           [](C c) -> auto& {
             return c.options.wasp.neighborhood_decomposition;
           },
           true),
      axis("theta", kThetas,
           [](C c) -> auto& { return c.options.wasp.theta; }, true),
      axis("steal", kStealPolicies,
           [](C c) -> auto& { return c.options.wasp.steal_policy; }, true),
      axis("retries", kStealRetries,
           [](C c) -> auto& { return c.options.wasp.steal_retries; }, true),
      axis("chunk", kChunkCapacities,
           [](C c) -> auto& { return c.options.wasp.chunk_capacity; }, true),
      {"topology", static_cast<int>(std::size(kTopologies)), true,
       [](C c, int i) { c.topology = i; },
       [](Case c) {
         const int* t = kTopologies[c.topology];
         return t[0] == 0 ? std::string("detected")
                          : show(t[0]) + "x" + show(t[1]) + "x" + show(t[2]);
       }},
      {"fragments", static_cast<int>(std::size(kFragments)), true,
       [](C c, int i) {
         c.options.wasp.partition.enabled = kFragments[i] >= 0;
         c.options.wasp.partition.num_fragments = std::max(kFragments[i], 0);
       },
       [](Case c) {
         const auto& p = c.options.wasp.partition;
         return p.enabled ? show(p.num_fragments) : std::string("flat");
       }},
      axis("flush", kFlushThresholds,
           [](C c) -> auto& {
             return c.options.wasp.partition.flush_threshold;
           },
           true),
      axis("stream", kStreams, [](C c) -> auto& { return c.stream; }),
      axis("cancel", kBools, [](C c) -> auto& { return c.cancel; }),
  };
  return all;
}

Case decode(std::uint64_t seed) {
  Case c;
  c.seed = seed;
  c.options.seed = seed;
  Xoshiro256 rng(seed);
  for (const Axis& a : axes()) {
    const auto size = static_cast<std::uint64_t>(a.size);
    // A pinned Wasp-only axis steps once per round of the algorithm axis,
    // so it varies across the pinned Wasp cases.
    const std::uint64_t pin =
        a.wasp_only ? seed / std::size(kAlgorithms) : seed;
    a.set(c, static_cast<int>(seed < kPinnedCases ? pin % size
                                                  : rng.next_below(size)));
  }
  // Half the random draws run Wasp, so its ten knobs see as many draws as
  // the other seven algorithms together.
  if (seed >= kPinnedCases && rng.next() % 2 == 0)
    c.options.algo = Algorithm::kWasp;
  return c;
}

std::string describe(const Case& c) {
  std::string s = "seed=" + std::to_string(c.seed);
  for (const Axis& a : axes()) s += std::string(" ") + a.name + "=" + a.show(c);
  return s;
}

// --- delta streams ----------------------------------------------------------

using ClosedArc = std::pair<VertexId, WEdge>;

/// One batch of `stream` updates, touching each logical edge at most once
/// (an undirected edge is both of its arcs). Close/reopen closes live arcs
/// and reopens the oldest closures past four, alternately at the old weight
/// and a new one, so the arcs revive in place.
GraphDelta next_batch(const VersionedGraph& vg, Stream stream,
                      Xoshiro256& rng, std::deque<ClosedArc>& closed) {
  GraphDelta delta;
  std::set<std::pair<VertexId, VertexId>> used;
  const auto fresh = [&](VertexId u, VertexId v) {
    if (vg.is_undirected() && v < u) std::swap(u, v);
    return used.insert({u, v}).second;
  };
  while (stream == Stream::kCloseReopen && closed.size() > 4) {
    const auto [u, e] = closed.front();
    closed.pop_front();
    if (fresh(u, e.dst))
      delta.insert(u, e.dst, closed.size() % 2 == 0 ? e.w : e.w + 3);
  }
  const VertexId n = vg.num_vertices();
  for (int op = 0; op < kBatchOps; ++op) {
    if (stream == Stream::kStructural && op % 2 == 1) {
      const auto u = static_cast<VertexId>(rng.next_below(n));
      const auto v = static_cast<VertexId>(rng.next_below(n));
      if (u != v && fresh(u, v))
        delta.insert(u, v, static_cast<Weight>(1 + rng.next_below(100)));
      continue;
    }
    for (int tries = 0; tries < 64; ++tries) {
      const auto u = static_cast<VertexId>(rng.next_below(n));
      const auto adj = vg.out_neighbors(u);
      if (adj.empty()) continue;
      const WEdge e = adj[rng.next_below(adj.size())];
      if (!fresh(u, e.dst)) break;
      const bool decrease = stream == Stream::kDecrease ||
                            (stream == Stream::kMixed && op % 2 == 0);
      if (stream == Stream::kStructural || stream == Stream::kCloseReopen) {
        delta.erase(u, e.dst);
        if (stream == Stream::kCloseReopen) closed.emplace_back(u, e);
      } else if (decrease) {
        delta.set_weight(u, e.dst,
                         static_cast<Weight>(rng.next_below(e.w + 1ull)));
      } else {
        delta.set_weight(u, e.dst,
                         static_cast<Weight>(e.w + 1 + rng.next_below(100)));
      }
      break;
    }
  }
  return delta;
}

// --- the oracle loop --------------------------------------------------------

/// Requests cancellation for `reason` from the first run callback, so the
/// cancel lands mid-solve whenever the run is long enough to fire one.
class CancelOnFirstCallback final : public obs::RunObserver {
 public:
  CancelOnFirstCallback(CancelToken& token, CancelReason reason)
      : token_(&token), reason_(reason) {}
  void on_round(std::uint64_t, std::uint64_t) override { fire(); }
  void on_progress(int, std::uint64_t) override { fire(); }

 private:
  void fire() { token_->request_cancel(reason_); }
  CancelToken* token_;
  CancelReason reason_;
};

std::string rerun_command() {
  const testing::TestInfo* t =
      testing::UnitTest::GetInstance()->current_test_info();
  return std::string("test_differential --gtest_filter=") +
         t->test_suite_name() + "." + t->name();
}

/// Runs `c` and checks every answer it produces against dijkstra(). A
/// cancelled case cancels its first solve for `reason`.
void check(const Case& c, CancelReason reason = CancelReason::kUser) {
  SCOPED_TRACE(describe(c) + "\n  re-run: " + rerun_command());
  VersionedGraph vg(make_graph(c));
  const VertexId source =
      pick_source_in_largest_component(vg.graph(), c.seed);
  SsspOptions options = c.options;
  options.wasp.topology = make_topology(c.topology);
  Solver inc(options);
  const auto expect_exact = [&](VertexId s, std::span<const Distance> got,
                                const std::string& when) {
    std::string why;
    if (distances_equal(dijkstra(vg.graph(), s).dist, got, &why)) return;
    ADD_FAILURE() << when << " (source " << s << "): " << why;
  };

  if (c.cancel) {
    CancelToken token;
    CancelOnFirstCallback canceller(token, reason);
    inc.options().observer = &canceller;
    inc.options().cancel = &token;
    try {
      expect_exact(source, inc.solve(vg, source, {}, 0),
                   "solve the cancel missed");
    } catch (const SolveCancelledError& e) {
      EXPECT_EQ(e.reason(), reason);
    }
    inc.options().observer = nullptr;
    inc.options().cancel = nullptr;
  }
  // Each source's answer and the version it is exact at. The second
  // source's first answer comes from Dijkstra, not from this solver.
  struct Held {
    VertexId source;
    Answer answer;
    std::uint64_t version;
  };
  const VertexId second =
      pick_source_in_largest_component(vg.graph(), ~c.seed);
  std::array<Held, 2> held{
      Held{source, inc.solve(vg, source, {}, 0), vg.version()},
      Held{second, Answer(dijkstra(vg.graph(), second).dist), vg.version()}};
  expect_exact(source, held[0].answer, "first solve");

  Xoshiro256 rng(hash_mix(c.seed));
  std::deque<ClosedArc> closed;
  for (int b = 0; c.stream != Stream::kNone && b < kBatches; ++b) {
    const GraphDelta delta = next_batch(vg, c.stream, rng, closed);
    if (delta.empty()) continue;
    (void)vg.apply(delta);
    // held[0] is the answer the solver published last, but the buffer one
    // publish behind it is held[1]'s, which the loop still holds, so each
    // repair copies its answer into a working buffer once: one epoch sweep
    // each. The swap keeps that order for the next batch.
    for (std::size_t i = 0; i < held.size(); ++i) {
      Held& h = held[i];
      h.answer = inc.solve(vg, h.source, h.answer, h.version);
      h.version = vg.version();
      const std::string when = "after batch " + std::to_string(b);
      const obs::MetricsSnapshot& m = inc.last_metrics();
      EXPECT_EQ(m.counter(obs::CounterId::kRepairFullSolves), 0u)
          << when << " (source " << h.source << ") was not repaired";
      EXPECT_EQ(m.counter(obs::CounterId::kEpochSweeps), 1u)
          << when << " (source " << h.source << ")";
      EXPECT_EQ(m.counter(obs::CounterId::kRepairArrayCopies), 1u)
          << when << " (source " << h.source << ")";
      expect_exact(h.source, h.answer, when);
    }
    std::swap(held[0], held[1]);
  }
}

// --- the seeded cases -------------------------------------------------------

class Seed : public testing::TestWithParam<std::uint64_t> {};

TEST_P(Seed, MatchesDijkstra) { check(decode(GetParam())); }

std::string seed_name(const testing::TestParamInfo<std::uint64_t>& p) {
  return std::to_string(p.param);
}

INSTANTIATE_TEST_SUITE_P(Differential, Seed,
                         testing::Range<std::uint64_t>(0, kCases), seed_name);

TEST(Differential, CaseIsAPureFunctionOfItsSeed) {
  // A reported seed must replay the same case: changing what a seed decodes
  // to breaks every reproduction line printed so far.
  EXPECT_EQ(describe(decode(0)),
            "seed=0 generator=grid algo=dijkstra threads=1 delta=1 rho=1 "
            "leaf_pruning=off bidirectional=off decomposition=off theta=8 "
            "steal=priority-numa retries=0 chunk=16 topology=detected "
            "fragments=flat flush=4 stream=none cancel=off");
  EXPECT_EQ(describe(decode(kPinnedCases)),
            "seed=77 generator=ML algo=gap threads=3 delta=1024 rho=64 "
            "leaf_pruning=off bidirectional=off decomposition=on theta=256 "
            "steal=random retries=8 chunk=16 topology=1x1x8 fragments=flat "
            "flush=64 stream=increase cancel=off");
  const Graph g = random_multigraph(kPinnedCases);
  EXPECT_EQ(g.num_vertices(), 177u);
  EXPECT_EQ(g.num_edges(), 408u);
}

TEST(Differential, PinnedCasesHitEveryValueOfEveryAxis) {
  for (const Axis& a : axes()) {
    std::set<std::string> want;
    std::set<std::string> got;
    for (int v = 0; v < a.size; ++v) {
      Case probe;
      a.set(probe, v);
      want.insert(a.show(probe));
    }
    for (std::uint64_t seed = 0; seed < kPinnedCases; ++seed) {
      const Case c = decode(seed);
      if (!a.wasp_only || c.options.algo == Algorithm::kWasp)
        got.insert(a.show(c));
    }
    EXPECT_EQ(want, got) << a.name;
  }
}

// --- the replaced sweeps' names, each a list of configurations for check() -

Case fixed(int generator, Algorithm algo, int threads, Weight delta) {
  Case c;
  c.generator = generator;
  c.options.algo = algo;
  c.options.threads = threads;
  c.options.delta = delta;
  return c;
}

using CorrectnessParam = std::tuple<Algorithm, int, Weight, int>;
class SsspCorrectness : public testing::TestWithParam<CorrectnessParam> {};

TEST_P(SsspCorrectness, MatchesDijkstra) {
  const auto [algo, shape, delta, threads] = GetParam();
  Case c = fixed(shape, algo, threads, delta);
  c.options.wasp.theta = 256;  // decomposition fires on the star's hub
  check(c);
}

std::string correctness_name(
    const testing::TestParamInfo<CorrectnessParam>& p) {
  const auto [algo, shape, delta, threads] = p.param;
  return std::string(to_string(algo)) + "_" + kShapes[shape].name + "_d" +
         show(delta) + "_t" + show(threads);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, SsspCorrectness,
    testing::Combine(
        testing::ValuesIn(std::begin(kAlgorithms) + 1, std::end(kAlgorithms)),
        testing::Range(0, kNumShapes), testing::Values(Weight{1}, Weight{64}),
        testing::Values(1, 4)),
    correctness_name);

class SsspDeltaSweep : public testing::TestWithParam<Weight> {};

TEST_P(SsspDeltaSweep, WaspAnyDeltaMatchesDijkstra) {
  check(fixed(0, Algorithm::kWasp, 3, GetParam()));
}

INSTANTIATE_TEST_SUITE_P(DeltaValues, SsspDeltaSweep,
                         testing::Values(Weight{1}, Weight{2}, Weight{16},
                                         Weight{255}, Weight{1024},
                                         Weight{1u << 20}));

class SuiteIntegration : public testing::TestWithParam<suite::GraphClass> {};

TEST_P(SuiteIntegration, WaspMatchesDijkstraOnEveryClass) {
  Case c = fixed(suite_generator(GetParam()), Algorithm::kWasp, 4, 1);
  c.options.wasp.theta = 512;
  check(c);
}

TEST_P(SuiteIntegration, GapAndDeltaStarMatchDijkstra) {
  for (const Algorithm algo :
       {Algorithm::kDeltaStepping, Algorithm::kDeltaStar})
    check(fixed(suite_generator(GetParam()), algo, 3, 128));
}

std::string class_name(const testing::TestParamInfo<suite::GraphClass>& p) {
  return suite::abbr(p.param);
}

INSTANTIATE_TEST_SUITE_P(MainSuite, SuiteIntegration,
                         testing::ValuesIn(suite::main_suite()), class_name);
INSTANTIATE_TEST_SUITE_P(AppendixSuite, SuiteIntegration,
                         testing::ValuesIn(suite::appendix_suite()),
                         class_name);

/// The random case of `seed`, moved onto its seeded random multigraph.
Case random_case(std::uint64_t seed) {
  Case c = decode(seed);
  c.generator = kRandomGenerator;
  return c;
}

class FuzzAllAlgorithms : public testing::TestWithParam<int> {};

TEST_P(FuzzAllAlgorithms, EveryAlgorithmMatchesDijkstra) {
  Case c = random_case(1'000'000 + static_cast<std::uint64_t>(GetParam()));
  for (const Algorithm algo : kAlgorithms) {
    c.options.algo = algo;
    check(c);
  }
}

INSTANTIATE_TEST_SUITE_P(Rounds, FuzzAllAlgorithms, testing::Range(0, 40));

class FuzzWaspConfigs : public testing::TestWithParam<int> {};

TEST_P(FuzzWaspConfigs, RandomConfigurationsMatchDijkstra) {
  Case c = random_case(2'000'000 + static_cast<std::uint64_t>(GetParam()));
  c.options.algo = Algorithm::kWasp;
  check(c);
}

INSTANTIATE_TEST_SUITE_P(Rounds, FuzzWaspConfigs, testing::Range(0, 40));

struct StreamCase {
  const char* shape_name;
  int shape;
  Stream stream;
};

class IncrementalStream : public testing::TestWithParam<StreamCase> {};

TEST_P(IncrementalStream, BitIdenticalToFromScratchAfterEveryBatch) {
  Case c = fixed(GetParam().shape, Algorithm::kWasp, 2, 16);
  c.stream = GetParam().stream;
  check(c);
}

std::vector<StreamCase> stream_cases() {
  std::vector<StreamCase> cases;
  for (const auto& [name, shape] :
       {std::pair{"grid", 0}, std::pair{"chain", 1}, std::pair{"er", 5},
        std::pair{"star", 2}, std::pair{"rmat_dir", 3}}) {
    for (const Stream stream : {Stream::kDecrease, Stream::kIncrease,
                                Stream::kMixed, Stream::kStructural})
      cases.push_back({name, shape, stream});
  }
  return cases;
}

std::string stream_name(const testing::TestParamInfo<StreamCase>& p) {
  return std::string(p.param.shape_name) + "_" + show(p.param.stream);
}

INSTANTIATE_TEST_SUITE_P(Shapes, IncrementalStream,
                         testing::ValuesIn(stream_cases()), stream_name);

class ServiceCancel : public testing::TestWithParam<Algorithm> {};

TEST_P(ServiceCancel, CancelMidSolveLeavesSolverReusableAndBitIdentical) {
  Case c = fixed(8, GetParam(), 3, 32);  // er_large
  c.cancel = true;
  // Both reasons: the service's watchdog cancels for kDeadline, and its
  // worker keeps the Solver for the next query.
  for (const CancelReason reason :
       {CancelReason::kUser, CancelReason::kDeadline}) {
    SCOPED_TRACE(std::string("cancel reason ") + to_string(reason));
    check(c, reason);
  }
}

std::string algorithm_name(const testing::TestParamInfo<Algorithm>& p) {
  return to_string(p.param);
}

INSTANTIATE_TEST_SUITE_P(
    ServiceAlgos, ServiceCancel,
    testing::ValuesIn(std::begin(kAlgorithms) + 1, std::end(kAlgorithms)),
    algorithm_name);

/// Partitioned Wasp on kShapes[shape] over kTopologies[topology]; 0
/// fragments = one per NUMA node.
Case partitioned(int shape, int threads, int fragments, int topology) {
  Case c = fixed(shape, Algorithm::kWasp, threads, 8);
  c.topology = topology;
  c.options.wasp.partition.enabled = true;
  c.options.wasp.partition.num_fragments = fragments;
  return c;
}

TEST(PartitionSolve, MatchesFlatWaspAcrossTopologies) {
  for (const int shape : {0, 4, 2}) {
    for (int topology = 1; topology < 5; ++topology) {
      Case c = partitioned(shape, 8, 0, topology);
      check(c);
      c.options.wasp.partition.enabled = false;
      check(c);
    }
  }
}

TEST(PartitionSolve, FragmentAndThresholdKnobs) {
  for (const int fragments : {1, 2, 3, 8}) {
    for (const std::uint32_t threshold : {1u, 64u, 256u}) {
      Case c = partitioned(4, 6, fragments, 3);
      c.options.wasp.partition.flush_threshold = threshold;
      check(c);
    }
  }
}

TEST(PartitionSolve, SingleThreadAndSingleFragment) {
  for (const int threads : {1, 2}) check(partitioned(0, threads, 0, 2));
}

TEST(PartitionSolve, StealPolicies) {
  for (const StealPolicy policy : kStealPolicies) {
    Case c = partitioned(2, 8, 4, 3);
    c.options.wasp.steal_policy = policy;
    check(c);
  }
}

}  // namespace
}  // namespace wasp
