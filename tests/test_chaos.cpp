// Fault-injection tests: the chaos engine itself (seeded determinism,
// replayable traces, failure reports), the Chase-Lev deque under forced-
// yield/steal-fail schedules, replay determinism and observer invariants of
// real runs under injection. The seeded sweep of every algorithm under every
// policy is the chaos axis of test_differential.cpp. In WASP_CHAOS=OFF
// builds the injection points are compiled out; the WASP_CHAOS=ON CI job
// runs the same binaries with the faults live.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "concurrent/chase_lev_deque.hpp"
#include "graph/algorithms.hpp"
#include "obs/observer.hpp"
#include "graph/generators.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/solver.hpp"
#include "sssp/sssp.hpp"
#include "sssp/validate.hpp"
#include "support/chaos.hpp"
#include "support/thread_team.hpp"

namespace wasp {
namespace {

// ---------------------------------------------------------------------------
// Engine unit tests (the Engine class is compiled in every configuration;
// only the in-tree injection hooks are build-gated).
// ---------------------------------------------------------------------------

std::vector<chaos::Event> drive_engine(std::uint64_t seed,
                                       const chaos::Policy& policy,
                                       int visits) {
  chaos::Engine engine(seed, policy, 2);
  for (int i = 0; i < visits; ++i) {
    engine.fire(0, chaos::Point::kStealFail);
    engine.fire(0, chaos::Point::kYieldBeforeCas);
    engine.fire(1, chaos::Point::kSpuriousWakeup);
  }
  return engine.trace();
}

TEST(ChaosEngine, SameSeedSameTrace) {
  const auto a = drive_engine(42, chaos::Policy::uniform(8192), 500);
  const auto b = drive_engine(42, chaos::Policy::uniform(8192), 500);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());  // 1500 visits at 1/8 each: empty is impossible
}

TEST(ChaosEngine, DifferentSeedsDiverge) {
  const auto a = drive_engine(1, chaos::Policy::uniform(8192), 500);
  const auto b = drive_engine(2, chaos::Policy::uniform(8192), 500);
  EXPECT_NE(a, b);
}

TEST(ChaosEngine, OffPolicyNeverFires) {
  chaos::Engine engine(7, chaos::Policy::off(), 4);
  for (int i = 0; i < 10000; ++i)
    EXPECT_FALSE(engine.fire(i % 4, chaos::Point::kStealFail));
  EXPECT_EQ(engine.fired_count(), 0u);
}

TEST(ChaosEngine, RatesAreRoughlyHonored) {
  chaos::Policy p = chaos::Policy::uniform(16384);  // 1/4
  chaos::Engine engine(99, p, 1);
  int fired = 0;
  constexpr int kVisits = 20000;
  for (int i = 0; i < kVisits; ++i)
    fired += engine.fire(0, chaos::Point::kYieldAfterCas) ? 1 : 0;
  EXPECT_GT(fired, kVisits / 5);
  EXPECT_LT(fired, kVisits / 3);
}

TEST(ChaosEngine, TraceSeqIdentifiesVisitNotFiring) {
  // With rate 65535/65536 nearly every visit fires; seq must track visits,
  // so consecutive events on one thread have strictly increasing seq.
  chaos::Engine engine(5, chaos::Policy::uniform(65535), 1);
  for (int i = 0; i < 64; ++i) engine.fire(0, chaos::Point::kChunkAllocFail);
  const auto trace = engine.trace();
  ASSERT_GT(trace.size(), 32u);
  for (std::size_t i = 1; i < trace.size(); ++i)
    EXPECT_GT(trace[i].seq, trace[i - 1].seq);
}

TEST(ChaosEngine, FailureReportNamesSeedPolicyAndSchedule) {
  chaos::Engine engine(0xDEADBEEFu, chaos::Policy::steal_storm(), 3);
  for (int i = 0; i < 200; ++i) engine.fire(1, chaos::Point::kStealFail);
  const std::string report =
      chaos::failure_report(engine, "distance mismatch at vertex 17");
  EXPECT_NE(report.find(std::to_string(0xDEADBEEFu)), std::string::npos);
  EXPECT_NE(report.find("steal-storm"), std::string::npos);
  EXPECT_NE(report.find("distance mismatch at vertex 17"), std::string::npos);
  EXPECT_NE(report.find("steal-fail"), std::string::npos);
}

TEST(ChaosEngine, ScopedInstallRoutesAndRestores) {
  chaos::Engine engine(3, chaos::Policy::uniform(65535), 1);
  EXPECT_FALSE(chaos::active());
  EXPECT_FALSE(chaos::fire(chaos::Point::kStealFail));  // nothing installed
  {
    chaos::ScopedInstall guard(&engine, 0);
    EXPECT_TRUE(chaos::active());
    int fired = 0;
    for (int i = 0; i < 64; ++i)
      fired += chaos::fire(chaos::Point::kStealFail) ? 1 : 0;
    EXPECT_GT(fired, 0);
  }
  EXPECT_FALSE(chaos::active());
  EXPECT_EQ(engine.fired_count(), engine.trace().size());
}

TEST(ChaosEngine, NullInstallIsNoop) {
  chaos::ScopedInstall guard(nullptr, 0);
  EXPECT_FALSE(chaos::active());
  EXPECT_FALSE(chaos::fire(chaos::Point::kYieldBeforeCas));
}

TEST(ChaosEngine, StandardPoliciesShape) {
  const auto policies = chaos::standard_policies();
  ASSERT_GE(policies.size(), 5u);
  EXPECT_STREQ(policies.front().name, "off");
  for (const auto& p : policies) EXPECT_NE(p.name, nullptr);
}

// ---------------------------------------------------------------------------
// Deque safety under seeded chaos schedules: >= 1000 forced-yield/steal-fail
// schedules, each checking exactly-once consumption.
// ---------------------------------------------------------------------------

struct Item {
  std::atomic<int> consumed{0};
};

TEST(ChaosDeque, ThousandSeededSchedulesExactlyOnce) {
  constexpr int kSchedules = 1000;
  constexpr int kItems = 192;
  chaos::Policy policy;
  policy.name = "deque-fuzz";
  policy.rate[static_cast<std::size_t>(chaos::Point::kStealFail)] = 16384;
  policy.rate[static_cast<std::size_t>(chaos::Point::kYieldBeforeCas)] = 8192;
  policy.rate[static_cast<std::size_t>(chaos::Point::kYieldAfterCas)] = 8192;

  ThreadTeam team(3);  // owner + two thieves
  std::vector<Item> items(kItems);
  for (int s = 0; s < kSchedules; ++s) {
    chaos::Engine engine(static_cast<std::uint64_t>(s), policy, team.size());
    ChaseLevDeque<Item*> dq(2);
    for (auto& it : items) it.consumed.store(0, std::memory_order_relaxed);
    std::atomic<bool> done{false};
    std::atomic<int> consumed{0};

    team.run([&](int tid) {
      chaos::ScopedInstall guard(&engine, tid);
      if (tid == 0) {
        for (int i = 0; i < kItems; ++i) {
          dq.push_bottom(&items[static_cast<std::size_t>(i)]);
          if (i % 4 == 0) {
            if (Item* it = dq.pop_bottom()) {
              it->consumed.fetch_add(1, std::memory_order_acq_rel);
              consumed.fetch_add(1, std::memory_order_acq_rel);
            }
          }
        }
        while (consumed.load(std::memory_order_acquire) < kItems) {
          if (Item* it = dq.pop_bottom()) {
            it->consumed.fetch_add(1, std::memory_order_acq_rel);
            consumed.fetch_add(1, std::memory_order_acq_rel);
          } else {
            std::this_thread::yield();
          }
        }
        done.store(true, std::memory_order_release);
      } else {
        while (!done.load(std::memory_order_acquire)) {
          if (Item* it = dq.steal()) {
            it->consumed.fetch_add(1, std::memory_order_acq_rel);
            consumed.fetch_add(1, std::memory_order_acq_rel);
          } else {
            std::this_thread::yield();
          }
        }
      }
    });

    ASSERT_EQ(consumed.load(), kItems)
        << chaos::failure_report(engine, "lost or duplicated deque items");
    for (auto& it : items)
      ASSERT_EQ(it.consumed.load(), 1)
          << chaos::failure_report(engine, "item consumed != 1 time");
    ASSERT_EQ(dq.pop_bottom(), nullptr);
    ASSERT_EQ(dq.steal(), nullptr);
  }
}

// ---------------------------------------------------------------------------
// Replay determinism through a real scheduler run: with one worker thread
// the whole injection schedule is a pure function of the seed, so two runs
// record identical traces.
// ---------------------------------------------------------------------------

TEST(ChaosReplay, SingleThreadRunsReproduceIdenticalTraces) {
  const Graph g =
      gen::rmat(9, 4096, 0.57, 0.19, 0.19, WeightScheme::gap(), 31, false);
  const VertexId src = pick_source_in_largest_component(g, 31);
  const std::vector<Distance> ref = dijkstra(g, src).dist;

  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = 1;
  options.delta = 2;
  Solver solver(options);
  for (const std::uint64_t seed : {7ull, 1234ull, 0xFACEull}) {
    std::vector<chaos::Event> traces[2];
    for (int rep = 0; rep < 2; ++rep) {
      chaos::Engine engine(seed, chaos::Policy::termination_fuzz(), 1);
      solver.options().chaos = &engine;
      const SsspResult r = solver.solve(g, src);
      std::string why;
      EXPECT_TRUE(distances_equal(ref, r.dist, &why))
          << chaos::failure_report(engine, "single-thread run diverged: " + why);
      traces[rep] = engine.trace();
    }
    EXPECT_EQ(traces[0], traces[1]) << "seed " << seed
                                    << ": replay produced a different schedule";
#if defined(WASP_CHAOS_ENABLED) && WASP_CHAOS_ENABLED
    // With injection compiled in, termination_fuzz must actually have fired
    // (thousands of visits at >= 1/16 rates).
    EXPECT_FALSE(traces[0].empty());
#endif
  }
}

// ---------------------------------------------------------------------------
// Run-lifecycle invariants under fault injection: the observer contract
// (obs/observer.hpp) must hold on chaotic schedules too — termination fires
// exactly once per worker and steal callbacks track the attempts counter
// even when steals are being force-failed.
// ---------------------------------------------------------------------------

TEST(ChaosObserver, LifecycleInvariantsHoldUnderInjection) {
  class Hooks final : public obs::RunObserver {
   public:
    void on_steal(int, int, bool) override {
      steals.fetch_add(1, std::memory_order_relaxed);
    }
    void on_termination(int) override {
      terminations.fetch_add(1, std::memory_order_relaxed);
    }
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> terminations{0};
  };

  const Graph g = gen::grid(24, 24, WeightScheme::gap(), 22);
  const VertexId src = pick_source_in_largest_component(g, 22);
  const std::vector<Distance> ref = dijkstra(g, src).dist;

  constexpr int kThreads = 4;
  SsspOptions options;
  options.algo = Algorithm::kWasp;
  options.threads = kThreads;
  options.delta = 8;
  Solver solver(options);
  for (const std::uint64_t seed : {3ull, 99ull, 0xBEEFull}) {
    chaos::Engine engine(seed, chaos::Policy::steal_storm(), kThreads);
    Hooks hooks;
    solver.options().chaos = &engine;
    solver.options().observer = &hooks;
    const SsspResult r = solver.solve(g, src);

    std::string why;
    ASSERT_TRUE(distances_equal(ref, r.dist, &why))
        << chaos::failure_report(engine, "observed run diverged: " + why);
    EXPECT_EQ(hooks.terminations.load(), static_cast<std::uint64_t>(kThreads))
        << chaos::failure_report(engine, "termination hook count drifted");
    EXPECT_EQ(hooks.steals.load(),
              r.metrics.counter(obs::CounterId::kStealAttempts))
        << chaos::failure_report(engine, "steal hook count drifted");
  }
}

}  // namespace
}  // namespace wasp
