// Tests for the concurrency verification suite (src/verify/): the
// happens-before / weak-memory model, the plain-access race checker, and
// the Wing–Gong linearizability harness over Wasp's concurrent containers.
//
// The harness tests double as the kill mechanism for the memory-order
// mutation tester (tools/lint/atomics_audit.py): under WASP_VERIFY they
// drive each structure through hundreds of seeded sessions in which loads
// may legally return stale values, so a weakened release/acquire/seq_cst
// annotation surfaces as a linearizability violation, a reported data race,
// or broken conservation. In default builds the same harnesses still run as
// plain-hardware stress tests with linearizability checking (the model
// layer folds away); tests that *require* weak behaviors to be observable
// are compiled only under WASP_VERIFY_ENABLED.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "concurrent/chase_lev_deque.hpp"
#include "concurrent/chunk.hpp"
#include "concurrent/frontier_bag.hpp"
#include "concurrent/multiqueue.hpp"
#include "concurrent/spinlock.hpp"
#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "graph/delta.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "sssp/async_loop.hpp"
#include "sssp/curr_board.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/incremental.hpp"
#include "sssp/solver.hpp"
#include "sssp/validate.hpp"
#include "sssp/wasp.hpp"
#include "support/numa.hpp"
#include "support/random.hpp"
#include "support/thread_team.hpp"
#include "verify/checked_atomic.hpp"
#include "verify/context.hpp"
#include "verify/linearize.hpp"
#include "verify/model_barrier.hpp"
#include "verify/scheduler.hpp"

namespace wasp {
namespace {

#if defined(WASP_VERIFY_ENABLED) && WASP_VERIFY_ENABLED
constexpr bool kModelOn = true;
constexpr int kHarnessSeeds = 500;  // seeded histories per structure
#else
constexpr bool kModelOn = false;
constexpr int kHarnessSeeds = 60;  // plain stress flavor: keep tier-1 fast
#endif

using verify::BagSpec;
using verify::DequeSpec;
using verify::HistoryRecorder;
using verify::linearize;
using verify::Op;
using verify::PoolSpec;
using verify::Session;

using verify::ModelBarrier;
using verify::Scheduler;

/// Runs `fn(tid)` on `threads` std::threads, each bound to `session`. Each
/// thread also joins the installed Scheduler's round, if there is one, as
/// the sssp drivers' team lambdas do: the seed then pins the interleaving
/// and the faults. Without one the threads run free, which the staged tests
/// need: their raw-atomic spin-waits reach no schedule point, so a token
/// holder spinning there would never hand the token on.
template <typename Fn>
void run_bound(Session& session, int threads, Fn fn) {
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      verify::ScopedBind bind(&session, t);
      verify::ScopedSchedule schedule_guard(t);
      fn(t);
    });
  }
  for (auto& th : pool) th.join();
}

/// Seed range for the harness loops: all of [0, count) normally, or exactly
/// the one seed named by WASP_VERIFY_SEED=<n> — every harness failure
/// message prints the seed and a replay command line (replay_hint), so a
/// reported failure replays with that seed pinned here (schedules and
/// stale-load choices are deterministic per seed).
struct SeedRange {
  std::uint64_t first = 0;
  std::uint64_t last = 0;  ///< exclusive
};

SeedRange harness_seeds(std::uint64_t count = kHarnessSeeds) {
  SeedRange r;
  r.last = count;
  if (const char* pin = std::getenv("WASP_VERIFY_SEED")) {
    r.first = std::strtoull(pin, nullptr, 10);
    r.last = r.first + 1;
  }
  return r;
}

/// "seed N (replay: WASP_VERIFY_SEED=N ./tests/test_verify
/// --gtest_filter=Suite.Test)" — stitched into every harness assertion so a
/// red run is replayable by copy-paste. The seed pins the session's
/// stale-load streams and, in every test that installs a Scheduler (the
/// linearizability and end-to-end harnesses), its interleaving and fault
/// decisions, so the replay executes the same schedule bit-for-bit.
std::string replay_hint(std::uint64_t seed) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::ostringstream out;
  out << "seed " << seed << " (replay: WASP_VERIFY_SEED=" << seed
      << " ./tests/test_verify --gtest_filter="
      << (info != nullptr ? info->test_suite_name() : "?") << "."
      << (info != nullptr ? info->name() : "?") << ")";
  return out.str();
}

Session::Options session_options(int threads, std::uint64_t seed) {
  Session::Options o;
  o.threads = threads;
  o.seed = seed;
  return o;
}

Scheduler::Options scheduler_options(int threads, std::uint64_t seed) {
  Scheduler::Options o;
  o.threads = threads;
  o.seed = seed;
  return o;
}

/// What one seeded harness run leaves behind for replay checks.
struct HarnessRun {
  std::uint64_t schedule_hash = 0;
  std::vector<std::vector<Op>> history;
  std::array<std::uint64_t, verify::kNumFaults> faults{};
};

// --- linearizability checker self-tests (flavor independent) --------------

Op mk(int tid, int kind, std::uint64_t a, std::uint64_t r, bool ok,
      std::uint64_t inv, std::uint64_t res) {
  Op op;
  op.tid = tid;
  op.kind = kind;
  op.a = a;
  op.r = r;
  op.ok = ok;
  op.inv = inv;
  op.res = res;
  return op;
}

TEST(Linearize, AcceptsSequentialDequeHistory) {
  std::vector<std::vector<Op>> h(2);
  h[0] = {mk(0, DequeSpec::kPush, 1, 0, true, 0, 1),
          mk(0, DequeSpec::kPush, 2, 0, true, 2, 3)};
  h[1] = {mk(1, DequeSpec::kSteal, 0, 1, true, 4, 5)};
  EXPECT_TRUE(linearize<DequeSpec>(h).ok);
}

TEST(Linearize, RejectsStealFromWrongEnd) {
  // push(1); push(2); then a steal that returns 2: FIFO order violated, and
  // the operations do not overlap, so no reordering can save it.
  std::vector<std::vector<Op>> h(2);
  h[0] = {mk(0, DequeSpec::kPush, 1, 0, true, 0, 1),
          mk(0, DequeSpec::kPush, 2, 0, true, 2, 3)};
  h[1] = {mk(1, DequeSpec::kSteal, 0, 2, true, 4, 5)};
  const auto r = linearize<DequeSpec>(h);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.explanation.find("not linearizable"), std::string::npos);
}

TEST(Linearize, RejectsNullPopOnNonEmptyDeque) {
  std::vector<std::vector<Op>> h(1);
  h[0] = {mk(0, DequeSpec::kPush, 7, 0, true, 0, 1),
          mk(0, DequeSpec::kPopBottom, 0, 0, false, 2, 3)};
  EXPECT_FALSE(linearize<DequeSpec>(h).ok);
}

TEST(Linearize, AllowsOverlappingReorder) {
  // pop_bottom -> 2 responds before push(2) "happened" in program-text
  // order of the other thread, but the ops overlap, so a valid
  // linearization (push(1); push(2); pop->2) exists.
  std::vector<std::vector<Op>> h(2);
  h[0] = {mk(0, DequeSpec::kPush, 1, 0, true, 0, 1),
          mk(0, DequeSpec::kPush, 2, 0, true, 2, 6)};
  h[1] = {mk(1, DequeSpec::kPopBottom, 0, 2, true, 3, 5)};
  EXPECT_TRUE(linearize<DequeSpec>(h).ok);
}

TEST(Linearize, BagRejectsInventedElement) {
  std::vector<std::vector<Op>> h(1);
  Op pop = mk(0, BagSpec::kPop, 0, 9, true, 0, 1);
  pop.b = 9;
  h[0] = {pop};
  EXPECT_FALSE(linearize<BagSpec>(h).ok);
}

TEST(Linearize, BagRejectsDuplicatedPop) {
  std::vector<std::vector<Op>> h(2);
  Op push = mk(0, BagSpec::kPush, 5, 0, true, 0, 1);
  push.b = 77;
  Op pop1 = mk(0, BagSpec::kPop, 0, 5, true, 2, 3);
  pop1.b = 77;
  Op pop2 = mk(1, BagSpec::kPop, 0, 5, true, 4, 5);
  pop2.b = 77;
  h[0] = {push, pop1};
  h[1] = {pop2};
  EXPECT_FALSE(linearize<BagSpec>(h).ok);
}

TEST(Linearize, BagAllowsSpuriousEmpty) {
  std::vector<std::vector<Op>> h(2);
  Op push = mk(0, BagSpec::kPush, 5, 0, true, 0, 1);
  push.b = 1;
  h[0] = {push};
  h[1] = {mk(1, BagSpec::kPop, 0, 0, false, 0, 1)};
  EXPECT_TRUE(linearize<BagSpec>(h).ok);
}

TEST(Linearize, PoolRejectsDoubleAllocation) {
  std::vector<std::vector<Op>> h(2);
  h[0] = {mk(0, PoolSpec::kGet, 0, 0xA, true, 0, 1)};
  h[1] = {mk(1, PoolSpec::kGet, 0, 0xA, true, 2, 3)};
  EXPECT_FALSE(linearize<PoolSpec>(h).ok);
}

// --- weak-memory model litmus tests (need the model) ----------------------

#if defined(WASP_VERIFY_ENABLED) && WASP_VERIFY_ENABLED

TEST(VerifyModel, MessagePassingRelaxedObservesStaleData) {
  // MP litmus: with relaxed publication the reader may see flag==1 yet
  // data==0. The model must exhibit this on x86, where hardware never
  // would — this is the property the whole mutation tester rests on.
  int stale_runs = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    verify::atomic<int> data{0};
    verify::atomic<int> flag{0};
    int seen = -1;
    Session session(session_options(2, seed));
    run_bound(session, 2, [&](int tid) {
      if (tid == 0) {
        data.store(42, std::memory_order_relaxed);
        flag.store(1, std::memory_order_relaxed);
      } else {
        while (flag.load(std::memory_order_relaxed) != 1) {
        }
        seen = data.load(std::memory_order_relaxed);
      }
    });
    ASSERT_TRUE(session.ok()) << session.report_text();
    if (seen == 0) ++stale_runs;
  }
  EXPECT_GT(stale_runs, 0)
      << "the model never produced a stale read; weakened release/acquire "
         "mutants would be unkillable";
}

TEST(VerifyModel, MessagePassingReleaseAcquireNeverStale) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    verify::atomic<int> data{0};
    verify::atomic<int> flag{0};
    int seen = -1;
    Session session(session_options(2, seed));
    run_bound(session, 2, [&](int tid) {
      if (tid == 0) {
        data.store(42, std::memory_order_relaxed);
        flag.store(1, std::memory_order_release);
      } else {
        while (flag.load(std::memory_order_acquire) != 1) {
        }
        seen = data.load(std::memory_order_relaxed);
      }
    });
    ASSERT_TRUE(session.ok()) << session.report_text();
    ASSERT_EQ(seen, 42) << "release/acquire edge ignored at seed " << seed;
  }
}

TEST(VerifyModel, ReleaseFenceArmsSubsequentRelaxedStore) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    verify::atomic<int> data{0};
    verify::atomic<int> flag{0};
    int seen = -1;
    Session session(session_options(2, seed));
    run_bound(session, 2, [&](int tid) {
      if (tid == 0) {
        data.store(42, std::memory_order_relaxed);
        verify::thread_fence(std::memory_order_release);
        flag.store(1, std::memory_order_relaxed);
      } else {
        while (flag.load(std::memory_order_relaxed) != 1) {
        }
        verify::thread_fence(std::memory_order_acquire);
        seen = data.load(std::memory_order_relaxed);
      }
    });
    ASSERT_TRUE(session.ok()) << session.report_text();
    ASSERT_EQ(seen, 42) << "fence pair ignored at seed " << seed;
  }
}

TEST(VerifyModel, RelaxToPublishesWithRelease) {
  // AtomicDistances::relax_to's documented contract: a successful lowering
  // is a release, so a reader whose relaxed load sees the new distance and
  // then fences with acquire also sees what the writer did before it.
  // Today every caller also publishes through a later release of its own
  // (a frontier flag, a deque push, a lock), so only this test pins the
  // primitive's order (mutant DIST-7e9ec7).
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    verify::atomic<int> data{0};
    std::vector<Distance> buffer(1, kInfDist);
    const AtomicDistances dist(buffer);
    int seen = -1;
    Session session(session_options(2, seed));
    run_bound(session, 2, [&](int tid) {
      if (tid == 0) {
        data.store(42, std::memory_order_relaxed);
        EXPECT_TRUE(dist.relax_to(0, 7));
      } else {
        while (dist.load(0) != 7) {
        }
        verify::thread_fence(std::memory_order_acquire);
        seen = data.load(std::memory_order_relaxed);
      }
    });
    ASSERT_TRUE(session.ok()) << session.report_text();
    ASSERT_EQ(seen, 42) << "relax_to published without release at seed "
                        << seed;
  }
}

TEST(VerifyModel, SeqCstFencesForbidStoreBufferingBothZero) {
  // SB litmus: r0 == r1 == 0 is forbidden with seq_cst fences. This is the
  // edge pop_bottom/steal rely on; its mutant must be observable.
  int both_zero_unfenced = 0;
  for (int fenced = 1; fenced >= 0; --fenced) {
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
      verify::atomic<int> x{0};
      verify::atomic<int> y{0};
      int r0 = -1, r1 = -1;
      Session session(session_options(2, seed));
      run_bound(session, 2, [&](int tid) {
        if (tid == 0) {
          x.store(1, std::memory_order_relaxed);
          if (fenced) verify::thread_fence(std::memory_order_seq_cst);
          r0 = y.load(std::memory_order_relaxed);
        } else {
          y.store(1, std::memory_order_relaxed);
          if (fenced) verify::thread_fence(std::memory_order_seq_cst);
          r1 = x.load(std::memory_order_relaxed);
        }
      });
      ASSERT_TRUE(session.ok()) << session.report_text();
      if (fenced) {
        ASSERT_FALSE(r0 == 0 && r1 == 0)
            << "seq_cst fences failed to forbid both-zero at seed " << seed;
      } else if (r0 == 0 && r1 == 0) {
        ++both_zero_unfenced;
      }
    }
  }
  EXPECT_GT(both_zero_unfenced, 0)
      << "the model never exhibited store buffering; seq_cst-fence mutants "
         "would be unkillable";
}

TEST(VerifyModel, RmwAtomicityIsExact) {
  verify::atomic<std::int64_t> counter{0};
  Session session(session_options(3, 7));
  run_bound(session, 3, [&](int) {
    for (int i = 0; i < 200; ++i)
      counter.fetch_add(1, std::memory_order_relaxed);
  });
  ASSERT_TRUE(session.ok()) << session.report_text();
  EXPECT_EQ(counter.load(std::memory_order_relaxed), 600)
      << "RMWs must read the latest store (C11 atomicity), never stale";
}

// --- SC-order (total order S) litmus tests --------------------------------
//
// The model tracks the single total order S over seq_cst operations
// explicitly (context.hpp next_sc_time / sc_publish_time): seq_cst stores
// are stamped with their S-position, seq_cst fences record theirs per
// thread, and admissible_pick floors every load at the newest store
// published in S before the reader's horizon. These tests pin the floor
// rules at maximum staleness pressure, where only the SC floor (not luck)
// can force a fresh value.

/// Session options with the stale-value bias pinned to the maximum: a load
/// picks uniformly among its admissible window essentially always, so any
/// store the floors fail to exclude *will* be observed across a seed sweep.
Session::Options always_stale(int threads, std::uint64_t seed) {
  Session::Options o = session_options(threads, seed);
  o.stale_rate = 65535;
  return o;
}

TEST(VerifyModel, SeqCstStoreFloorsPostFenceLoads) {
  // [atomics.order] store->fence rule: a relaxed load sequenced after a
  // seq_cst fence may not read a value older than a seq_cst store that
  // precedes the fence in S. The raw std::atomic handoff orders the two
  // threads in real time (and hence in S, which the model fixes to the
  // execution order under its lock) without contributing any model edge,
  // so only the SC floor makes the outcome deterministic.
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    verify::atomic<int> x{0};
    std::atomic<int> handoff{0};
    int seen = -1;
    Session session(always_stale(2, seed));
    run_bound(session, 2, [&](int tid) {
      if (tid == 0) {
        x.store(1, std::memory_order_seq_cst);
        handoff.store(1, std::memory_order_release);
      } else {
        while (handoff.load(std::memory_order_acquire) != 1) {
        }
        verify::thread_fence(std::memory_order_seq_cst);
        seen = x.load(std::memory_order_relaxed);
      }
    });
    ASSERT_TRUE(session.ok()) << session.report_text();
    ASSERT_EQ(seen, 1) << "SC store->fence floor ignored at seed " << seed;
  }
}

TEST(VerifyModel, SeqCstLoadFloorsAtNewestScStore) {
  // [atomics.order] store->load rule: a seq_cst load reads no older than
  // the newest seq_cst store before it in S, fence or no fence.
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    verify::atomic<int> x{0};
    std::atomic<int> handoff{0};
    int seen = -1;
    Session session(always_stale(2, seed));
    run_bound(session, 2, [&](int tid) {
      if (tid == 0) {
        x.store(1, std::memory_order_seq_cst);
        handoff.store(1, std::memory_order_release);
      } else {
        while (handoff.load(std::memory_order_acquire) != 1) {
        }
        seen = x.load(std::memory_order_seq_cst);
      }
    });
    ASSERT_TRUE(session.ok()) << session.report_text();
    ASSERT_EQ(seen, 1) << "SC store->load floor ignored at seed " << seed;
  }
}

TEST(VerifyModel, FenceFencePublishesEarlierRelaxedStore) {
  // [atomics.order] fence->fence rule: a *relaxed* store sequenced before
  // the writer's seq_cst fence X is visible to any load sequenced after a
  // seq_cst fence later than X in S (sc_publish_time). This rule is
  // load-bearing for the intact Chase-Lev deque: pop_bottom's relaxed
  // bottom decrement is published to fenced thieves only by the owner's
  // CLD-5f7729 fence — without the rule the serialized scheduler would observe
  // "impossible" stale bottoms on correct code.
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    verify::atomic<int> x{0};
    std::atomic<int> handoff{0};
    int seen = -1;
    Session session(always_stale(2, seed));
    run_bound(session, 2, [&](int tid) {
      if (tid == 0) {
        x.store(1, std::memory_order_relaxed);
        verify::thread_fence(std::memory_order_seq_cst);
        handoff.store(1, std::memory_order_release);
      } else {
        while (handoff.load(std::memory_order_acquire) != 1) {
        }
        verify::thread_fence(std::memory_order_seq_cst);
        seen = x.load(std::memory_order_relaxed);
      }
    });
    ASSERT_TRUE(session.ok()) << session.report_text();
    ASSERT_EQ(seen, 1) << "SC fence->fence publication ignored at seed "
                       << seed;
  }
}

TEST(VerifyModel, UnfencedLoadMayStillMissSeqCstStore) {
  // Negative control for the three floors above: drop the reader's fence
  // (and load relaxed) and the store's S-position no longer binds the
  // reader, so staleness must reappear — otherwise the floors are
  // over-approximating and seq_cst weakenings would be masked rather than
  // detected.
  int stale_runs = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    verify::atomic<int> x{0};
    std::atomic<int> handoff{0};
    int seen = -1;
    Session session(always_stale(2, seed));
    run_bound(session, 2, [&](int tid) {
      if (tid == 0) {
        x.store(1, std::memory_order_seq_cst);
        handoff.store(1, std::memory_order_release);
      } else {
        while (handoff.load(std::memory_order_acquire) != 1) {
        }
        seen = x.load(std::memory_order_relaxed);
      }
    });
    ASSERT_TRUE(session.ok()) << session.report_text();
    if (seen == 0) ++stale_runs;
  }
  EXPECT_GT(stale_runs, 0)
      << "an unfenced relaxed load never went stale; the SC floor is "
         "over-approximating and would mask seq_cst weakenings";
}

// --- seq_cst fences: pure S-membership, no happens-before -----------------
//
// C11 seq_cst fences only take a slot in the total order S; they floor the
// *values* later loads may return but never synchronize by themselves —
// happens-before still needs an atomic store/load mediator. The model used
// to over-approximate here (every fence joined a global clock), which hid
// fence-reliant protocols' missing edges from the race checker. These
// litmus tests fail under that old semantics and pin the faithful one.

TEST(VerifyModel, ScFencesAloneDoNotSynchronizePlainAccesses) {
  // T0: plain write, seq_cst fence. T1 (later in real time, so later in
  // S): seq_cst fence, plain read. The raw std::atomic handoff orders the
  // threads in real time without a model edge. C11: the two fences are in
  // S but create no happens-before, so the plain accesses race.
  std::uint32_t cell = 0;
  std::atomic<int> handoff{0};
  Session session(session_options(2, 7));
  run_bound(session, 2, [&](int tid) {
    if (tid == 0) {
      verify::plain_store(cell, std::uint32_t{7});
      verify::thread_fence(std::memory_order_seq_cst);
      handoff.store(1, std::memory_order_release);
    } else {
      while (handoff.load(std::memory_order_acquire) != 1) {
      }
      verify::thread_fence(std::memory_order_seq_cst);
      (void)verify::plain_load(cell);
    }
  });
  EXPECT_FALSE(session.ok())
      << "fence-fence alone must not order plain accesses: a seq_cst "
         "fence is S-membership only, not a synchronization edge";
  EXPECT_NE(session.report_text().find("race"), std::string::npos)
      << session.report_text();
}

TEST(VerifyModel, FenceFenceForcesValueWithoutHappensBefore) {
  // The two sides of the decoupling in one history: the fence-fence
  // [atomics.order] rule forces the relaxed load fresh (value floor), yet
  // the plain cell written before the store still races — visibility of a
  // value is not ordering. Under the old clock-joining fences this test
  // fails on the second expectation.
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    std::uint32_t cell = 0;
    verify::atomic<int> x{0};
    std::atomic<int> handoff{0};
    int seen = -1;
    Session session(always_stale(2, seed));
    run_bound(session, 2, [&](int tid) {
      if (tid == 0) {
        verify::plain_store(cell, std::uint32_t{7});
        x.store(1, std::memory_order_relaxed);
        verify::thread_fence(std::memory_order_seq_cst);
        handoff.store(1, std::memory_order_release);
      } else {
        while (handoff.load(std::memory_order_acquire) != 1) {
        }
        verify::thread_fence(std::memory_order_seq_cst);
        seen = x.load(std::memory_order_relaxed);
        (void)verify::plain_load(cell);
      }
    });
    ASSERT_EQ(seen, 1) << "fence-fence value floor lost at seed " << seed;
    ASSERT_FALSE(session.ok())
        << "value forced fresh must still leave the plain cell racy "
           "(seed " << seed << ")";
  }
}

// --- release sequences (C++11 pre-P0982 rules) ----------------------------

TEST(VerifyModel, ReleaseSequenceContinuesThroughOwnRelaxedStore) {
  // C++11 [intro.races]: a release sequence headed by a release store
  // continues through *same-thread* subsequent stores, so an acquire load
  // that reads the later relaxed store still synchronizes with the head.
  // The Chase-Lev bottom_ protocol depends on this: pop_bottom's relaxed
  // bottom stores must keep carrying the owner's last release.
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    std::uint32_t cell = 0;
    verify::atomic<int> x{0};
    std::atomic<int> handoff{0};
    Session session(always_stale(2, seed));
    run_bound(session, 2, [&](int tid) {
      if (tid == 0) {
        verify::plain_store(cell, std::uint32_t{7});
        x.store(1, std::memory_order_release);
        x.store(2, std::memory_order_relaxed);
        handoff.store(1, std::memory_order_release);
      } else {
        while (handoff.load(std::memory_order_acquire) != 1) {
        }
        int r = 0;
        for (int i = 0; i < 400 && r != 2; ++i)
          r = x.load(std::memory_order_acquire);
        ASSERT_EQ(r, 2) << "coherence never converged at seed " << seed;
        ASSERT_EQ(verify::plain_load(cell), 7U);
      }
    });
    ASSERT_TRUE(session.ok())
        << "same-thread continuation ignored at seed " << seed << ":\n"
        << session.report_text();
  }
}

TEST(VerifyModel, ReleaseSequenceBrokenByForeignRelaxedStore) {
  // ...but a relaxed store by *another* thread (not an RMW) breaks the
  // sequence: an acquire load of that store gets no edge to the head.
  std::uint32_t cell = 0;
  verify::atomic<int> x{0};
  std::atomic<int> h1{0};
  std::atomic<int> h2{0};
  Session session(session_options(3, 11));
  run_bound(session, 3, [&](int tid) {
    if (tid == 0) {
      verify::plain_store(cell, std::uint32_t{7});
      x.store(1, std::memory_order_release);
      h1.store(1, std::memory_order_release);
    } else if (tid == 1) {
      while (h1.load(std::memory_order_acquire) != 1) {
      }
      x.store(2, std::memory_order_relaxed);
      h2.store(1, std::memory_order_release);
    } else {
      while (h2.load(std::memory_order_acquire) != 1) {
      }
      // Relaxed spin keeps the clock clean of store 1's payload (its
      // release clock lands in pending_acquire, never joined); the final
      // acquire re-reads store 2 by coherence and gets no edge from it.
      int r = 0;
      for (int i = 0; i < 400 && r != 2; ++i)
        r = x.load(std::memory_order_relaxed);
      ASSERT_EQ(r, 2);
      (void)x.load(std::memory_order_acquire);
      (void)verify::plain_load(cell);
    }
  });
  EXPECT_FALSE(session.ok())
      << "a foreign relaxed store must break the release sequence";
}

TEST(VerifyModel, RmwContinuesForeignReleaseSequence) {
  // An RMW by any thread continues the sequence (C++11 and C++20 agree):
  // the acquire load of the fetch_add's result synchronizes with the
  // original release head.
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    std::uint32_t cell = 0;
    verify::atomic<int> x{0};
    std::atomic<int> h1{0};
    std::atomic<int> h2{0};
    Session session(always_stale(3, seed));
    run_bound(session, 3, [&](int tid) {
      if (tid == 0) {
        verify::plain_store(cell, std::uint32_t{7});
        x.store(1, std::memory_order_release);
        h1.store(1, std::memory_order_release);
      } else if (tid == 1) {
        while (h1.load(std::memory_order_acquire) != 1) {
        }
        x.fetch_add(1, std::memory_order_relaxed);
        h2.store(1, std::memory_order_release);
      } else {
        while (h2.load(std::memory_order_acquire) != 1) {
        }
        int r = 0;
        for (int i = 0; i < 400 && r != 2; ++i)
          r = x.load(std::memory_order_acquire);
        ASSERT_EQ(r, 2) << "coherence never converged at seed " << seed;
        ASSERT_EQ(verify::plain_load(cell), 7U);
      }
    });
    ASSERT_TRUE(session.ok())
        << "RMW continuation ignored at seed " << seed << ":\n"
        << session.report_text();
  }
}

// --- SC-order exploration (Options::sc_reorder_window) --------------------
//
// With a nonzero window the session *searches* over admissible SC total
// orders instead of fixing S to the execution lock order: a publication
// floor whose publisher is unordered (by happens-before and coherence)
// with every event up to the reader's horizon may be dropped, re-seating
// the publisher after the horizon. Each drop is a commitment, re-validated
// against every later freshness window (Session::sc_before /
// sc_note_horizon), so the explored history is always some single valid S.

/// always_stale plus an exploration window: every legal S reordering is
/// taken whenever the coin allows.
Session::Options exploring(int threads, std::uint64_t seed, int window) {
  Session::Options o = always_stale(threads, seed);
  o.sc_reorder_window = window;
  return o;
}

TEST(VerifyModel, ScExplorationUnpinsUnorderedStoreFenceWindow) {
  // A seq_cst store and a later (real-time) seq_cst fence with no
  // happens-before between them may appear in either order in S; only the
  // store->fence floor of the lock order forces the fresh value. Window 0
  // keeps the floor bit-for-bit; a nonzero window must explore the other
  // admissible order and let the load go stale.
  for (int window : {0, 4}) {
    int stale_runs = 0;
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
      verify::atomic<int> x{0};
      std::atomic<int> handoff{0};
      int seen = -1;
      Session session(exploring(2, seed, window));
      run_bound(session, 2, [&](int tid) {
        if (tid == 0) {
          x.store(1, std::memory_order_seq_cst);
          handoff.store(1, std::memory_order_release);
        } else {
          while (handoff.load(std::memory_order_acquire) != 1) {
          }
          verify::thread_fence(std::memory_order_seq_cst);
          seen = x.load(std::memory_order_relaxed);
        }
      });
      ASSERT_TRUE(session.ok()) << session.report_text();
      if (seen == 0) ++stale_runs;
    }
    if (window == 0) {
      EXPECT_EQ(stale_runs, 0)
          << "window 0 must preserve the lock-order floors exactly";
    } else {
      EXPECT_GT(stale_runs, 0)
          << "exploration never took the admissible S reordering";
    }
  }
}

TEST(VerifyModel, ScExplorationKeepsSeqCstLoadFloorsFirm) {
  // Store buffering with seq_cst accesses: both-zero contradicts every
  // total order, window or no window — a seq_cst load's horizon is all of
  // S, which exploration must never slide anything past.
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    verify::atomic<int> x{0};
    verify::atomic<int> y{0};
    int r0 = -1;
    int r1 = -1;
    Session session(exploring(2, seed, 8));
    run_bound(session, 2, [&](int tid) {
      if (tid == 0) {
        x.store(1, std::memory_order_seq_cst);
        r0 = y.load(std::memory_order_seq_cst);
      } else {
        y.store(1, std::memory_order_seq_cst);
        r1 = x.load(std::memory_order_seq_cst);
      }
    });
    ASSERT_TRUE(session.ok()) << session.report_text();
    ASSERT_FALSE(r0 == 0 && r1 == 0)
        << "seq_cst store buffering reached both-zero at seed " << seed;
  }
}

TEST(VerifyModel, ScExplorationHorizonAnchorsForbidFenceBothZero) {
  // Store buffering with relaxed accesses and seq_cst fences: C11 forbids
  // both-zero for *every* choice of S (whichever fence is later floors
  // that side's load). With T0 completing first, T0's load already ran
  // under its fence's horizon, so exploration may not slide that fence
  // past T1's — without the horizon-anchor commitment the two floors
  // would be dropped against contradictory orders and both-zero appears.
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    verify::atomic<int> x{0};
    verify::atomic<int> y{0};
    std::atomic<int> handoff{0};
    int r0 = -1;
    int r1 = -1;
    Session session(exploring(2, seed, 8));
    run_bound(session, 2, [&](int tid) {
      if (tid == 0) {
        x.store(1, std::memory_order_relaxed);
        verify::thread_fence(std::memory_order_seq_cst);
        r0 = y.load(std::memory_order_relaxed);
        handoff.store(1, std::memory_order_release);
      } else {
        while (handoff.load(std::memory_order_acquire) != 1) {
        }
        y.store(1, std::memory_order_relaxed);
        verify::thread_fence(std::memory_order_seq_cst);
        r1 = x.load(std::memory_order_relaxed);
      }
    });
    ASSERT_TRUE(session.ok()) << session.report_text();
    ASSERT_EQ(r0, 0) << "T0 ran first; y cannot be set yet";
    ASSERT_EQ(r1, 1)
        << "T0's fence is anchored by its own load's horizon; T1's "
           "post-fence load must stay floored (seed " << seed << ")";
  }
}

// --- plain-cell value modeling (verify::plain_load / plain_store) ---------

TEST(VerifyModel, PlainValueModelAdmitsStaleValueWithoutHb) {
  // An unsynchronized plain read is both *reported* (race diagnostic) and
  // *simulated* (it may return any admissible value, not just the latest),
  // so value-sensitive assertions downstream of a protocol hole fail in
  // the simulation instead of silently reading fresh hardware values.
  int stale_runs = 0;
  int fresh_runs = 0;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    std::uint32_t cell = 1;
    std::atomic<int> handoff{0};
    std::uint32_t seen = 0;
    Session session(always_stale(2, seed));
    run_bound(session, 2, [&](int tid) {
      if (tid == 0) {
        verify::plain_store(cell, std::uint32_t{7});
        handoff.store(1, std::memory_order_release);
      } else {
        while (handoff.load(std::memory_order_acquire) != 1) {
        }
        seen = verify::plain_load(cell);
      }
    });
    EXPECT_FALSE(session.ok()) << "unsynchronized plain read not reported";
    ASSERT_TRUE(seen == 1 || seen == 7) << "invented value " << seen;
    (seen == 1 ? stale_runs : fresh_runs) += 1;
  }
  EXPECT_GT(stale_runs, 0) << "stale plain value never simulated";
  EXPECT_GT(fresh_runs, 0) << "fresh plain value never simulated";
}

TEST(VerifyModel, PlainValueModelFreshUnderReleaseAcquire) {
  // With a correct handoff the value floor follows the clock: the reader
  // must see the pre-release store, and no race is reported.
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    std::uint32_t cell = 1;
    verify::atomic<int> flag{0};
    Session session(always_stale(2, seed));
    run_bound(session, 2, [&](int tid) {
      if (tid == 0) {
        verify::plain_store(cell, std::uint32_t{7});
        flag.store(1, std::memory_order_release);
      } else {
        // Unbounded spin: the writer runs on a real OS thread, so any fixed
        // retry bound turns writer starvation into a spurious failure (it
        // fired once in a mutation campaign under build load, mis-crediting
        // a kill). The model floors staleness, so the loop terminates once
        // the store lands; a genuine model bug surfaces as a test timeout.
        int r = 0;
        while (r != 1) r = flag.load(std::memory_order_acquire);
        ASSERT_EQ(verify::plain_load(cell), 7U)
            << "synchronized plain read went stale at seed " << seed;
      }
    });
    ASSERT_TRUE(session.ok()) << session.report_text();
  }
}

// --- SC-order kill tests for the Chase-Lev seq_cst CAS sites --------------
//
// CLD-86f63b (pop_bottom last-element CAS) and CLD-c4227a (steal CAS) need seq_cst
// for a *freshness* guarantee, not for element flow: element transfer is
// CAS-certified (an RMW always reads the latest top, so hardware never
// duplicates), which is why no element-conservation harness can kill a
// seq_cst->acq_rel weakening there. What seq_cst adds is a position in S:
// any observer that executes a seq_cst fence after the CAS (in S) is
// guaranteed to see top at least as new as the CAS. These tests pin
// exactly that contract via size_estimate() after a fence, with staleness
// pressure at maximum. Intact, the floors make the outcome deterministic;
// weakened to acq_rel the CAS leaves no trace in S (neither CAS is covered
// by a *later* same-thread fence: pop_bottom's CLD-5f7729 fence and steal's
// CLD-18faf2 fence both precede their CAS), so the observer legally reads the
// pre-CAS top and the assertion trips within a few seeds.

TEST(DequeScOrder, PopBottomCasIsPublishedToFencedThief) {
  const SeedRange seeds = harness_seeds();
  for (std::uint64_t seed = seeds.first; seed < seeds.last; ++seed) {
    ChaseLevDeque<int*> deque(2);
    int cell = 0;
    std::atomic<int> stage{0};  // raw: real-time order, no model edge
    std::int64_t size_seen = -1;
    Session session(always_stale(2, seed));
    run_bound(session, 2, [&](int tid) {
      if (tid == 0) {
        deque.push_bottom(&cell);
        // Last-element pop: t == b path, decided by the CLD-86f63b seq_cst
        // CAS on top (0 -> 1). No owner fence follows it.
        int* got = deque.pop_bottom();
        EXPECT_EQ(got, &cell);
        stage.store(1, std::memory_order_release);
      } else {
        while (stage.load(std::memory_order_acquire) != 1) {
          std::this_thread::yield();
        }
        verify::thread_fence(std::memory_order_seq_cst);
        size_seen = deque.size_estimate();
      }
    });
    ASSERT_TRUE(session.ok()) << replay_hint(seed) << ":\n"
                              << session.report_text();
    ASSERT_EQ(size_seen, 0)
        << replay_hint(seed)
        << ": a fenced observer saw a pre-CAS top after the owner's "
           "last-element pop - the CLD-86f63b CAS lost its seq_cst publication";
  }
}

TEST(DequeScOrder, StealCasIsPublishedToFencedOwner) {
  const SeedRange seeds = harness_seeds();
  for (std::uint64_t seed = seeds.first; seed < seeds.last; ++seed) {
    ChaseLevDeque<int*> deque(2);
    int cell = 0;
    std::atomic<int> stage{0};  // raw: real-time order, no model edge
    std::int64_t size_seen = -1;
    Session session(always_stale(2, seed));
    run_bound(session, 2, [&](int tid) {
      if (tid == 0) {
        deque.push_bottom(&cell);
        stage.store(1, std::memory_order_release);
        while (stage.load(std::memory_order_acquire) != 2) {
          std::this_thread::yield();
        }
        verify::thread_fence(std::memory_order_seq_cst);
        size_seen = deque.size_estimate();
      } else {
        while (stage.load(std::memory_order_acquire) != 1) {
          std::this_thread::yield();
        }
        // Under maximum staleness the CLD-e3247c bottom load may legally read
        // the pre-push bottom and return empty; retry until the one
        // element is taken. Every attempt's CLD-18faf2 fence still precedes
        // the CLD-c4227a CAS, so no retry ever publishes it.
        int* got = nullptr;
        while ((got = deque.steal()) == nullptr) {
        }
        EXPECT_EQ(got, &cell);
        stage.store(2, std::memory_order_release);
      }
    });
    ASSERT_TRUE(session.ok()) << replay_hint(seed) << ":\n"
                              << session.report_text();
    ASSERT_EQ(size_seen, 0)
        << replay_hint(seed)
        << ": a fenced owner saw a pre-CAS top after the thief emptied the "
           "deque - the CLD-c4227a CAS lost its seq_cst publication";
  }
}

// --- Wasp curr-board publication protocol (src/sssp/curr_board.hpp) -------
//
// The probe-then-steal freshness contract: a thief whose probe() observed a
// published level is synchronized with everything the owner pushed before
// publish(), so its very first steal() must succeed and the stolen chunk's
// plain payload (priority, vertices) must read fresh. These are the kill
// tests for the CURR publish-site mutants: weaken publish() to relaxed and
// the implication breaks at pinned seeds (stale bottom -> null steal, or a
// stale priority value), while the intact protocol satisfies it on every
// seed. The conditional shape matters: probe() reading the level is itself
// permitted to go stale, so the tests assert the implication, not
// unconditional success, and check the sweep was not vacuous.

using HarnessChunk = BasicChunk<4>;  // also used by the harnesses below

TEST(WaspCurrProtocol, ProbedLevelGuaranteesStealableChunk) {
  const SeedRange seeds = harness_seeds();
  int observed_runs = 0;
  for (std::uint64_t seed = seeds.first; seed < seeds.last; ++seed) {
    CurrBoard board(2);
    ChaseLevDeque<HarnessChunk*> deque(4);
    HarnessChunk chunk;  // filled bound by the owner
    std::atomic<int> ready{0};  // raw: real-time order, no model edge
    Session session(always_stale(2, seed));
    run_bound(session, 2, [&](int tid) {
      if (tid == 0) {
        chunk.set_priority(5);
        chunk.push(VertexId{7});
        deque.push_bottom(&chunk);
        board.publish(0, 5);
        ready.store(1, std::memory_order_release);
      } else {
        while (ready.load(std::memory_order_acquire) != 1) {
          std::this_thread::yield();
        }
        if (board.probe(0) == 5) {
          ++observed_runs;
          HarnessChunk* got = deque.steal();
          ASSERT_NE(got, nullptr)
              << replay_hint(seed)
              << ": probe observed the published level but the first steal "
                 "missed the chunk pushed before publish() - the "
                 "release/acquire freshness contract is broken";
          EXPECT_EQ(got->priority(), 5U)
              << replay_hint(seed) << ": stolen chunk's plain priority "
                                      "field read stale";
          EXPECT_EQ(got->pop(), VertexId{7})
              << replay_hint(seed) << ": stolen chunk's payload read stale";
        }
      }
    });
    ASSERT_TRUE(session.ok()) << replay_hint(seed) << ":\n"
                              << session.report_text();
  }
  // Staleness may legitimately hide the published level on some seeds, but
  // a sweep in which the thief never observes it would make the kill
  // assertions above vacuous.
  EXPECT_GT(observed_runs, 0) << "probe never observed the published level";
}

TEST(WaspCurrProtocol, IdlePublishOrdersPriorChunkMutations) {
  // Termination-side contract: a scanner that observes a worker's idle
  // publish (kInfPriority) is ordered after every chunk mutation the
  // worker made before it, so a post-scan inspection of leftover chunks
  // cannot race with the worker's last writes.
  const SeedRange seeds = harness_seeds(100);
  int observed_runs = 0;
  for (std::uint64_t seed = seeds.first; seed < seeds.last; ++seed) {
    CurrBoard board(2);
    HarnessChunk chunk;
    std::atomic<int> ready{0};
    Session session(always_stale(2, seed));
    run_bound(session, 2, [&](int tid) {
      if (tid == 0) {
        board.publish(0, 3);  // working at level 3
        chunk.push(VertexId{9});
        board.publish(0, kInfPriority);  // idle
        ready.store(1, std::memory_order_release);
      } else {
        while (ready.load(std::memory_order_acquire) != 1) {
          std::this_thread::yield();
        }
        // The board starts at kInfPriority, so a bare idle observation
        // could be a stale read of the initial value, which carries no
        // edge (the double-scan epoch check covers that in the engine).
        // The ordering contract applies to a scanner that saw the worker
        // *active* first: coherence then pins the later idle read to the
        // worker's publish, whose release payload covers the push.
        std::uint64_t lvl = 0;
        for (int i = 0; i < 400 && lvl != 3; ++i) lvl = board.scan(0);
        if (lvl == 3) {
          for (int i = 0; i < 400 && lvl != kInfPriority; ++i)
            lvl = board.scan(0);
          if (lvl == kInfPriority) {
            ++observed_runs;
            EXPECT_EQ(chunk.peek(0), VertexId{9})
                << replay_hint(seed) << ": idle observed after activity, "
                                        "but the worker's chunk mutation "
                                        "was not ordered";
          }
        }
      }
    });
    ASSERT_TRUE(session.ok()) << replay_hint(seed) << ":\n"
                              << session.report_text();
  }
  EXPECT_GT(observed_runs, 0) << "scan never observed the idle level";
}

// --- quiescence detector of the asynchronous baselines (async_loop.hpp) ----
//
// Worker 0 holds the source in flight and hands one pushed vertex to
// worker 1 through a release/acquire slot, standing in for a queue's lock.
// Worker 1 finishes it. A scanner that counts worker 1's done must also
// count worker 0's push, so it can never find the run quiescent while the
// source is in flight. Weaken done()'s release or the done collect's
// acquire and a stale pushed count balances the sums: these are the kill
// tests for the QD-* mutants.

TEST(QuiescenceDetectorProtocol, CountedDoneCarriesThePushesBeforeIt) {
  const SeedRange seeds = harness_seeds();
  for (std::uint64_t seed = seeds.first; seed < seeds.last; ++seed) {
    QuiescenceDetector detector(3);  // counts the source as worker 0's push
    verify::atomic<int> handed{0};
    std::atomic<int> finished{0};  // raw: real-time order, no model edge
    Session session(always_stale(3, seed));
    run_bound(session, 3, [&](int tid) {
      if (tid == 0) {
        detector.pushed(0);
        handed.store(1, std::memory_order_release);
      } else if (tid == 1) {
        while (handed.load(std::memory_order_acquire) != 1) {
          std::this_thread::yield();
        }
        detector.done(1);
        finished.store(1, std::memory_order_release);
      } else {
        while (finished.load(std::memory_order_acquire) != 1) {
          std::this_thread::yield();
        }
        EXPECT_FALSE(detector.quiescent())
            << replay_hint(seed)
            << ": quiescent while the source is in flight - the scan "
               "counted a done without the push ordered before it";
      }
    });
    ASSERT_TRUE(session.ok()) << replay_hint(seed) << ":\n"
                              << session.report_text();
    if (::testing::Test::HasFailure()) return;
  }
}

// --- Chase-Lev ring handoff (CLD-da1296 consume / CLD-69c545 release) -------------

TEST(DequeGrow, ConsumeCarriesRingConstructionToThief) {
  // The thief reaches a grown ring only through the CLD-da1296 consume load of
  // buffer_; grow's CLD-69c545 release store carries the new Ring's plain
  // construction (capacity/mask/slots pointer, declared via the ctor's
  // WASP_VERIFY_WR). This is the kill test for the CLD-da1296 consume->relaxed
  // mutant: without the edge, the thief's Ring::get() races with the
  // constructor at pinned seeds. The intact deque must stay race-free
  // under maximum staleness on every seed.
  const SeedRange seeds = harness_seeds();
  for (std::uint64_t seed = seeds.first; seed < seeds.last; ++seed) {
    ChaseLevDeque<HarnessChunk*> deque(2);  // capacity 2: third push grows
    std::vector<HarnessChunk> chunks(3);
    std::atomic<int> ready{0};
    Session session(always_stale(2, seed));
    run_bound(session, 2, [&](int tid) {
      if (tid == 0) {
        for (auto& c : chunks) deque.push_bottom(&c);  // grows while bound
        ready.store(1, std::memory_order_release);
      } else {
        while (ready.load(std::memory_order_acquire) != 1) {
          std::this_thread::yield();
        }
        for (int i = 0; i < 4; ++i) (void)deque.steal();
      }
    });
    ASSERT_TRUE(session.ok())
        << replay_hint(seed)
        << ": intact consume/release ring handoff reported a race:\n"
        << session.report_text();
  }
}

TEST(VerifySession, PlainRaceDetected) {
  int cell = 0;
  Session session(session_options(2, 3));
  run_bound(session, 2, [&](int tid) {
    if (tid == 0) {
      WASP_VERIFY_WR(&cell);
      cell = 1;
    } else {
      WASP_VERIFY_RD(&cell);
      (void)cell;
    }
  });
  EXPECT_FALSE(session.ok());
  const std::string report = session.report_text();
  EXPECT_NE(report.find("data race"), std::string::npos) << report;
  EXPECT_NE(report.find("test_verify.cpp"), std::string::npos)
      << "diagnostics must carry the access sites: " << report;
  EXPECT_NE(report.find("seed"), std::string::npos)
      << "diagnostics must name the seed for replay: " << report;
}

TEST(VerifySession, PlainAccessOrderedByReleaseAcquireIsClean) {
  int cell = 0;
  verify::atomic<int> flag{0};
  Session session(session_options(2, 3));
  run_bound(session, 2, [&](int tid) {
    if (tid == 0) {
      WASP_VERIFY_WR(&cell);
      cell = 1;
      flag.store(1, std::memory_order_release);
    } else {
      while (flag.load(std::memory_order_acquire) != 1) {
      }
      WASP_VERIFY_RD(&cell);
      (void)cell;
    }
  });
  EXPECT_TRUE(session.ok()) << session.report_text();
}

// --- a deliberately buggy structure the checker must reject ---------------

/// Treiber stack with every ordering deliberately relaxed: the node payload
/// is published without a release edge. The checker must catch it.
template <std::memory_order kCasOrder>
class ToyStack {
 public:
  struct Node {
    std::uint64_t value = 0;
    Node* next = nullptr;
  };

  void push(Node* n, std::uint64_t v) {
    WASP_VERIFY_WR(n);
    n->value = v;
    Node* h = head_.load(std::memory_order_relaxed);
    do {
      n->next = h;
    } while (!head_.compare_exchange_weak(h, n, kCasOrder,
                                          std::memory_order_relaxed));
  }

  bool pop(std::uint64_t& v) {
    Node* h = head_.load(std::memory_order_relaxed);
    while (h != nullptr) {
      if (head_.compare_exchange_weak(h, h->next, kCasOrder,
                                      std::memory_order_relaxed)) {
        WASP_VERIFY_RD(h);
        v = h->value;
        return true;
      }
    }
    return false;
  }

 private:
  verify::atomic<Node*> head_{nullptr};
};

template <std::memory_order kCasOrder>
bool toy_stack_run_clean(std::uint64_t seed) {
  ToyStack<kCasOrder> stack;
  std::vector<typename ToyStack<kCasOrder>::Node> nodes(50);
  verify::atomic<int> done{0};
  Session session(session_options(2, seed));
  Scheduler scheduler(scheduler_options(2, seed));
  run_bound(session, 2, [&](int tid) {
    if (tid == 0) {
      for (std::size_t i = 0; i < nodes.size(); ++i)
        stack.push(&nodes[i], 100 + i);
      done.store(1, std::memory_order_relaxed);
    } else {
      std::uint64_t v;
      for (;;) {
        const bool got = stack.pop(v);
        if (!got && done.load(std::memory_order_relaxed) == 1) break;
      }
    }
  });
  return session.ok();
}

TEST(ToyStack, CheckerRejectsRelaxedPublication) {
  EXPECT_FALSE(toy_stack_run_clean<std::memory_order_relaxed>(11))
      << "the buggy toy stack was not flagged: the race checker is blind";
}

TEST(ToyStack, CheckerAcceptsAcqRelPublication) {
  for (std::uint64_t seed = 0; seed < 20; ++seed)
    EXPECT_TRUE(toy_stack_run_clean<std::memory_order_acq_rel>(seed));
}

#endif  // WASP_VERIFY_ENABLED

// --- seeded linearizability harnesses over the real structures ------------
//
// Each harness runs kHarnessSeeds independent sessions. Under WASP_VERIFY
// the session's weak-memory model and a Scheduler seeded like it perturb the
// run: the scheduler picks the interleaving and, on its fault seeds, fails
// steals and chunk-pool gets. The recorded history must stay linearizable,
// the session race-free, and the element multiset conserved. A seed replays
// bit-for-bit (SchedulerHarness.PinnedFaultSeedsReplayBitForBit).

using HarnessChunk = BasicChunk<4>;

struct DequeRunStats {
  std::uint64_t budget_exhausted = 0;
};

void deque_harness_one_seed(std::uint64_t seed, DequeRunStats& stats) {
  constexpr int kThreads = 3;  // owner + 2 thieves
  constexpr int kOwnerOps = 30;
  constexpr int kThiefOps = 12;

  // Initial capacity 2 forces ring growth mid-run, so the grow/publish
  // protocol is exercised in every history.
  ChaseLevDeque<HarnessChunk*> deque(2);
  std::vector<HarnessChunk> chunks(kOwnerOps);
  HistoryRecorder rec(kThreads);
  std::vector<std::uint64_t> drained_sum(kThreads, 0);
  std::uint64_t pushed_sum = 0;

  auto drain = [](HarnessChunk* c) {
    std::uint64_t sum = 0;
    while (!c->empty()) sum += c->pop();
    return sum;
  };

  Session session(session_options(kThreads, seed));
  Scheduler scheduler(scheduler_options(kThreads, seed));
  run_bound(session, kThreads, [&](int tid) {
    Xoshiro256 rng(hash_mix(seed * 31 + static_cast<std::uint64_t>(tid)));
    if (tid == 0) {
      int next_chunk = 0;
      for (int i = 0; i < kOwnerOps; ++i) {
        if (next_chunk < kOwnerOps && (rng.next_below(100) < 55 ||
                                       deque.empty_estimate())) {
          HarnessChunk* c = &chunks[next_chunk++];
          const auto fill = 1 + static_cast<std::uint32_t>(rng.next_below(3));
          std::uint64_t sum = 0;
          for (std::uint32_t k = 0; k < fill; ++k) {
            const auto v = static_cast<VertexId>(rng.next_below(1000) + 1);
            c->push(v);
            sum += v;
          }
          pushed_sum += sum;
          Op op = rec.begin(tid, DequeSpec::kPush,
                            reinterpret_cast<std::uint64_t>(c));
          deque.push_bottom(c);
          rec.end(op);
        } else {
          Op op = rec.begin(tid, DequeSpec::kPopBottom);
          HarnessChunk* c = deque.pop_bottom();
          op.ok = c != nullptr;
          op.r = reinterpret_cast<std::uint64_t>(c);
          rec.end(op);
          if (c != nullptr) drained_sum[0] += drain(c);
        }
      }
    } else {
      for (int i = 0; i < kThiefOps; ++i) {
        Op op = rec.begin(tid, DequeSpec::kSteal);
        HarnessChunk* c = deque.steal();
        op.ok = c != nullptr;
        op.r = reinterpret_cast<std::uint64_t>(c);
        rec.end(op);
        if (c != nullptr) {
          drained_sum[static_cast<std::size_t>(tid)] += drain(c);
        } else {
          std::this_thread::yield();
        }
      }
    }
  });

  ASSERT_TRUE(session.ok()) << replay_hint(seed) << ":\n"
                            << session.report_text();

  // Quiescent drain (unbound: plain hardware reads see the latest values).
  std::uint64_t remaining_sum = 0;
  std::set<HarnessChunk*> seen;
  auto by_thread = rec.collect();
  for (HarnessChunk* c = deque.pop_bottom(); c != nullptr;
       c = deque.pop_bottom()) {
    remaining_sum += drain(c);
    ASSERT_TRUE(seen.insert(c).second)
        << replay_hint(seed) << ": chunk drained twice at quiescence";
  }

  // Conservation: every vertex pushed into a chunk is drained exactly once.
  std::uint64_t drained_total = remaining_sum;
  for (int t = 0; t < kThreads; ++t)
    drained_total += drained_sum[static_cast<std::size_t>(t)];
  ASSERT_EQ(drained_total, pushed_sum)
      << replay_hint(seed) << ": elements lost or duplicated";

  // No chunk may be handed to two consumers.
  for (const auto& ops : by_thread)
    for (const Op& op : ops)
      if (op.kind != DequeSpec::kPush && op.ok) {
        ASSERT_TRUE(seen.insert(reinterpret_cast<HarnessChunk*>(op.r)).second)
            << replay_hint(seed) << ": chunk consumed twice";
      }

  const auto lin = linearize<DequeSpec>(by_thread);
  if (lin.budget_exhausted) ++stats.budget_exhausted;
  ASSERT_TRUE(lin.ok) << replay_hint(seed) << ":\n" << lin.explanation;
}

TEST(DequeHarness, SeededHistoriesLinearizeAndConserve) {
  DequeRunStats stats;
  const SeedRange seeds = harness_seeds();
  for (std::uint64_t seed = seeds.first; seed < seeds.last; ++seed) {
    deque_harness_one_seed(seed, stats);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // If the search gives up too often the harness proves nothing.
  EXPECT_LT(stats.budget_exhausted, kHarnessSeeds / 10U);
}

/// One seeded bag history; `replay`, when given, receives the schedule and
/// the history for replay checks.
template <typename Queue>
void bag_harness_one_seed(std::uint64_t seed, Queue& queue, int threads,
                          int pushes_per_thread,
                          HarnessRun* replay = nullptr) {
  HistoryRecorder rec(threads);
  Session session(session_options(threads, seed));
  Scheduler scheduler(scheduler_options(threads, seed));
  run_bound(session, threads, [&](int tid) {
    Xoshiro256 rng(hash_mix(seed * 131 + static_cast<std::uint64_t>(tid)));
    int pushed = 0;
    const int ops = pushes_per_thread * 2;
    for (int i = 0; i < ops; ++i) {
      if (pushed < pushes_per_thread && rng.next_below(100) < 60) {
        const auto key = static_cast<Distance>(rng.next_below(8));
        const auto value = static_cast<VertexId>(
            (static_cast<std::uint64_t>(tid) << 20) |
            static_cast<std::uint64_t>(pushed));
        Op op = rec.begin(tid, BagSpec::kPush, key, value);
        queue.push(tid, key, value);
        rec.end(op);
        ++pushed;
      } else {
        Distance key;
        VertexId value;
        Op op = rec.begin(tid, BagSpec::kPop);
        op.ok = queue.try_pop(tid, key, value);
        if (op.ok) {
          op.r = key;
          op.b = value;
        }
        rec.end(op);
      }
    }
  });

  ASSERT_TRUE(session.ok()) << replay_hint(seed) << ":\n"
                            << session.report_text();

  // Conservation at quiescence: pushed == popped + drained, as multisets.
  std::map<std::pair<Distance, VertexId>, int> balance;
  const auto by_thread = rec.collect();
  for (const auto& ops : by_thread) {
    for (const Op& op : ops) {
      if (op.kind == BagSpec::kPush) {
        ++balance[{static_cast<Distance>(op.a),
                   static_cast<VertexId>(op.b)}];
      } else if (op.ok) {
        --balance[{static_cast<Distance>(op.r),
                   static_cast<VertexId>(op.b)}];
      }
    }
  }
  bool drained_any = true;
  while (drained_any) {
    drained_any = false;
    for (int t = 0; t < threads; ++t) {
      Distance key;
      VertexId value;
      while (queue.try_pop(t, key, value)) {
        --balance[{key, value}];
        drained_any = true;
      }
    }
  }
  for (const auto& [elem, count] : balance)
    ASSERT_EQ(count, 0) << replay_hint(seed) << ": element (" << elem.first
                        << "," << elem.second
                        << ") lost or duplicated (balance " << count << ")";

  const auto lin = linearize<BagSpec>(by_thread);
  ASSERT_TRUE(lin.ok) << replay_hint(seed) << ":\n" << lin.explanation;
  if (replay != nullptr) {
    replay->schedule_hash = scheduler.schedule_hash();
    replay->faults = scheduler.faults();
    replay->history = by_thread;
  }
}

void mq_harness_one_seed(std::uint64_t seed, HarnessRun* replay = nullptr) {
  MultiQueue::Config cfg;
  cfg.threads = 3;
  cfg.c = 2;
  cfg.buffer_size = 4;
  cfg.stickiness = 2;
  cfg.seed = seed + 1;
  MultiQueue mq(cfg);
  bag_harness_one_seed(seed, mq, cfg.threads, 10, replay);
}

TEST(MultiQueueHarness, SeededHistoriesLinearizeAndConserve) {
  const SeedRange seeds = harness_seeds();
  for (std::uint64_t seed = seeds.first; seed < seeds.last; ++seed) {
    mq_harness_one_seed(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

#if defined(WASP_VERIFY_ENABLED) && WASP_VERIFY_ENABLED
TEST(MultiQueueHarness, PinnedSeedsDrainEveryElementAtQuiescence) {
  // Seeds 982 and 2661 leave one element in a single non-empty queue after
  // the threads join, which the sampled queue picks of refill can all
  // miss. The quiescent drain counts the element as lost unless try_pop
  // reports empty only when every queue is empty.
  for (const std::uint64_t seed : {982ULL, 2661ULL}) {
    mq_harness_one_seed(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}
#endif  // WASP_VERIFY_ENABLED

TEST(ChunkPoolHarness, SeededHistoriesKeepOwnershipExclusive) {
  const SeedRange seeds = harness_seeds();
  for (std::uint64_t seed = seeds.first; seed < seeds.last; ++seed) {
    constexpr int kThreads = 3;
    BasicChunkArena<HarnessChunk> arena;
    HistoryRecorder rec(kThreads);
    Session session(session_options(kThreads, seed));
    Scheduler scheduler(scheduler_options(kThreads, seed));
    run_bound(session, kThreads, [&](int tid) {
      BasicChunkPool<HarnessChunk> pool(arena, /*block_size=*/4);
      Xoshiro256 rng(hash_mix(seed * 17 + static_cast<std::uint64_t>(tid)));
      std::vector<HarnessChunk*> held;
      for (int i = 0; i < 24; ++i) {
        if (held.empty() || rng.next_below(100) < 60) {
          Op op = rec.begin(tid, PoolSpec::kGet);
          HarnessChunk* c = pool.get();
          op.r = reinterpret_cast<std::uint64_t>(c);
          rec.end(op);
          c->push(static_cast<VertexId>(i));  // touch: ownership must hold
          held.push_back(c);
        } else {
          HarnessChunk* c = held.back();
          held.pop_back();
          c->reset();
          Op op = rec.begin(tid, PoolSpec::kPut,
                            reinterpret_cast<std::uint64_t>(c));
          pool.put(c);
          rec.end(op);
        }
      }
    });
    ASSERT_TRUE(session.ok()) << replay_hint(seed) << ":\n"
                              << session.report_text();
    const auto lin = linearize<PoolSpec>(rec.collect());
    ASSERT_TRUE(lin.ok) << replay_hint(seed) << ":\n" << lin.explanation;
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SpinLockHarness, LockAndTryLockOrderPlainWrites) {
  // Exercises both acquisition paths (lock and try_lock spin) against the
  // race checker: a weakened exchange-acquire or unlock-release makes the
  // next holder's clock miss the previous holder's plain write.
  const SeedRange seeds = harness_seeds();
  for (std::uint64_t seed = seeds.first; seed < seeds.last; ++seed) {
    SpinLock lock;
    std::uint64_t counter = 0;
    Session session(session_options(3, seed));
    run_bound(session, 3, [&](int tid) {
      for (int i = 0; i < 40; ++i) {
        if (tid == 2) {
          while (!lock.try_lock()) std::this_thread::yield();
        } else {
          lock.lock();
        }
        WASP_VERIFY_WR(&counter);
        ++counter;
        lock.unlock();
      }
    });
    ASSERT_TRUE(session.ok()) << replay_hint(seed) << ":\n"
                              << session.report_text();
    ASSERT_EQ(counter, 120U) << replay_hint(seed) << ": lost increment";
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(FrontierBagHarness, PhasedDisciplineIsRaceFree) {
  const SeedRange seeds = harness_seeds();
  for (std::uint64_t seed = seeds.first; seed < seeds.last; ++seed) {
    constexpr int kThreads = 3;
    FrontierBag bag(kThreads);
    ModelBarrier barrier(kThreads);
    std::vector<VertexId> out(kThreads * 8);
    std::size_t total = 0;
    Session session(session_options(kThreads, seed));
    run_bound(session, kThreads, [&](int tid) {
      for (int i = 0; i < 8; ++i)
        bag.insert(tid, static_cast<VertexId>(tid * 100 + i));
      barrier.wait();
      if (tid == 0) total = bag.compute_offsets();
      barrier.wait();
      bag.copy_out_and_clear(tid, out.data());
    });
    ASSERT_TRUE(session.ok()) << replay_hint(seed) << ":\n"
                              << session.report_text();
    ASSERT_EQ(total, out.size());
    std::vector<VertexId> sorted = out;
    std::sort(sorted.begin(), sorted.end());
    for (int t = 0; t < kThreads; ++t)
      for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(std::binary_search(sorted.begin(), sorted.end(),
                                       static_cast<VertexId>(t * 100 + i)));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

#if defined(WASP_VERIFY_ENABLED) && WASP_VERIFY_ENABLED
TEST(FrontierBagHarness, UnorderedScanIsReportedAsRace) {
  // compute_offsets concurrent with another thread's insert, no barrier:
  // the phase discipline is violated and the checker must say so.
  FrontierBag bag(2);
  Session session(session_options(2, 5));
  run_bound(session, 2, [&](int tid) {
    if (tid == 0) {
      (void)bag.compute_offsets();
    } else {
      bag.insert(1, 42);
    }
  });
  EXPECT_FALSE(session.ok())
      << "an unsynchronized offset scan over live segments must be flagged";
}
#endif  // WASP_VERIFY_ENABLED

// --- seeded end-to-end scheduler harness ----------------------------------
//
// The real solvers (wasp.cpp and the round baselines through
// sssp/rounds.hpp) construct a verify::ScopedSchedule at the top of their
// team lambdas. With a Session
// and a Scheduler installed, every solve below therefore runs the *actual*
// production protocol — Chase-Lev deques, termination scan, barriers — as
// one deterministic virtual schedule: the scheduler serializes the team
// onto a single token and moves it between threads at instrumented
// operations, driven by a seeded PRNG, while the happens-before model
// feeds stale-but-admissible values to weakly-ordered loads. Distances are
// checked against sequential Dijkstra for every schedule; any model
// violation (race, impossible value) fails with a replayable seed. Without
// WASP_VERIFY the same tests run as plain multi-threaded stress.

#if defined(WASP_VERIFY_ENABLED) && WASP_VERIFY_ENABLED
constexpr std::uint64_t kE2eSeeds = 500;  // acceptance floor for the sweep
#else
constexpr std::uint64_t kE2eSeeds = 60;
#endif

/// The pinned schedule: seed 17 runs 4 model threads on the star graph
/// with two-choice stealing — a schedule-rich configuration (preemptions
/// at deque, termination-scan, and steal sites) kept as a regression
/// anchor. If scheduler decisions are ever renumbered or the instrumented
/// op set changes, this seed's fingerprint (asserted reproducible below)
/// and outcome flag it immediately.
constexpr std::uint64_t kPinnedSeed = 17;

struct E2eCase {
  Graph graph;
  VertexId source;
};

/// Tiny on purpose: under the serialized scheduler the budget is schedule
/// points, not vertices. Shapes chosen so steals, leaf pruning, bucket
/// churn, and disconnected vertices all occur across the sweep.
const std::vector<E2eCase>& e2e_cases() {
  static const std::vector<E2eCase> cases = [] {
    std::vector<E2eCase> cs;
    const auto add = [&cs](Graph g) {
      const VertexId src = pick_source_in_largest_component(g, 7);
      cs.push_back(E2eCase{std::move(g), src});
    };
    add(gen::grid(4, 4, WeightScheme::gap(), 21));
    add(gen::chain_forest(2, 12, WeightScheme::gap(), 22));
    add(gen::erdos_renyi(32, 3.0, WeightScheme::gap(), 23));
    add(gen::star_hub(24, 0.5, 0.1, WeightScheme::gap(), 24));
    return cs;
  }();
  return cases;
}

struct E2eOutcome {
  std::uint64_t schedule_hash = 0;
  std::uint64_t schedule_points = 0;
  std::uint64_t switches = 0;
  std::array<std::uint64_t, verify::kNumFaults> faults{};
  std::vector<Distance> dist;
};

/// Counts the run-lifecycle callbacks whose invariants the Wasp fault seeds
/// check (see RunObserver.WaspFiresTerminationOncePerWorkerAndStealPerAttempt
/// in test_obs.cpp for the fault-free form).
class LifecycleHooks final : public obs::RunObserver {
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

/// One seeded end-to-end schedule of the real solver. The seed fans out
/// into the thread count (2-4), the graph, the steal policy, the session's
/// stale-value streams, and every scheduling and fault decision. On Wasp's
/// fault seeds the run also checks the observer contract: termination fires
/// once per worker, and on_steal once per steal attempt, failed ones
/// included.
E2eOutcome e2e_one_seed(Algorithm algo, std::uint64_t seed,
                        bool partitioned = false) {
  const int threads = 2 + static_cast<int>(seed % 3);
  const auto& cases = e2e_cases();
  const E2eCase& c = cases[static_cast<std::size_t>(seed % cases.size())];
  const SsspResult reference = dijkstra(c.graph, c.source);

  SsspOptions options;
  options.algo = algo;
  options.threads = threads;
  options.delta = 8;
  options.seed = seed + 1;
  options.wasp.theta = 64;
  options.wasp.chunk_capacity = 16;  // small chunks: more deque traffic
  options.wasp.steal_policy = seed % 2 == 0 ? StealPolicy::kPriorityNuma
                                            : StealPolicy::kTwoChoice;
  // Small buffers and chunks: more shared-queue and global-bag
  // traffic in the asynchronous baselines.
  options.mq.buffer = 2;
  options.mq.stickiness = 2;
  options.obim.chunk_size = 2;
  if (partitioned) {
    // Partitioned engine under the serialized scheduler: a multi-node
    // synthetic topology so fragments and remote queues actually form, and
    // a tiny flush threshold so the publish/grab/in-flight protocol of
    // remote_queue.hpp fires every few relaxations (its memory-order
    // mutants must die here).
    options.wasp.topology =
        std::make_shared<NumaTopology>(NumaTopology::synthetic(2, 1, 2));
    options.wasp.partition.enabled = true;
    options.wasp.partition.num_fragments = 2 + static_cast<int>(seed % 2);
    options.wasp.partition.flush_threshold = 1 + (seed % 4);
  }

  LifecycleHooks hooks;
  const bool check_hooks =
      algo == Algorithm::kWasp && Scheduler::faults_armed(seed);
  if (check_hooks) options.observer = &hooks;

  E2eOutcome out;
  Session session(session_options(threads, seed));
  {
    Scheduler scheduler(scheduler_options(threads, seed));
    const SsspResult result = Solver(options).solve(c.graph, c.source);
    out.schedule_hash = scheduler.schedule_hash();
    out.schedule_points = scheduler.schedule_points();
    out.switches = scheduler.switches();
    out.faults = scheduler.faults();
    out.dist = result.dist;
    if (check_hooks) {
      EXPECT_EQ(hooks.terminations.load(),
                static_cast<std::uint64_t>(threads))
          << replay_hint(seed) << ": termination hook count drifted";
      EXPECT_EQ(hooks.steals.load(),
                result.metrics.counter(obs::CounterId::kStealAttempts))
          << replay_hint(seed) << ": steal hook count drifted";
    }

    EXPECT_TRUE(session.ok()) << replay_hint(seed) << ":\n"
                              << session.report_text();
    std::string message;
    EXPECT_TRUE(distances_equal(reference.dist, result.dist, &message))
        << replay_hint(seed) << " (" << to_string(algo)
        << ", threads=" << threads << "): " << message;
  }
  return out;
}

TEST(SchedulerHarness, WaspEndToEndSchedulesMatchDijkstra) {
  const SeedRange seeds = harness_seeds(kE2eSeeds);
  std::array<std::uint64_t, verify::kNumFaults> faults{};
  for (std::uint64_t seed = seeds.first; seed < seeds.last; ++seed) {
    const E2eOutcome out = e2e_one_seed(Algorithm::kWasp, seed);
    for (std::size_t f = 0; f < verify::kNumFaults; ++f)
      faults[f] += out.faults[f];
    if (::testing::Test::HasFailure()) return;
  }
  if (kModelOn && seeds.last - seeds.first == kE2eSeeds) {
    for (std::size_t f = 0; f < verify::kNumFaults; ++f)
      EXPECT_GT(faults[f], 0u) << "fault " << f << " never fired in the sweep";
  }
}

TEST(SchedulerHarness, PartitionedWaspEndToEndSchedulesMatchDijkstra) {
  const SeedRange seeds = harness_seeds(kE2eSeeds / 2);
  for (std::uint64_t seed = seeds.first; seed < seeds.last; ++seed) {
    e2e_one_seed(Algorithm::kWasp, seed, /*partitioned=*/true);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(SchedulerHarness, PlacementPhaseShardsNeverReadZero) {
  // Partitioned Wasp builds each fragment's distance shard on the
  // fragment's leader inside a team run (run_wasp's placement phase), and
  // the leader's peers read it through atomic_ref in the next run. A peer's
  // load may return any store its clock does not rule out, so a shard whose
  // entries the model saw at 0 before the fill would read as a ghost
  // distance 0. Every entry must read kInfDist from every worker.
  constexpr VertexId kShardSize = 96;
  const SeedRange seeds = harness_seeds(kE2eSeeds / 4);
  for (std::uint64_t seed = seeds.first; seed < seeds.last; ++seed) {
    const int threads = 2 + static_cast<int>(seed % 3);
    const int fragments = threads > 2 ? 2 : 1;
    ThreadTeam team(threads);
    std::vector<std::vector<Distance>> shards(
        static_cast<std::size_t>(fragments));
    std::vector<std::uint64_t> not_inf(static_cast<std::size_t>(threads), 0);
    Session session(session_options(threads, seed));
    {
      Scheduler scheduler(scheduler_options(threads, seed));
      // Leaders are workers 0 and 2, as with two fragments of a 3-4-worker
      // team; each builds its fragment's shard.
      team.run([&](int tid) {
        verify::ScopedSchedule schedule_guard(tid);
        if (tid % 2 == 0 && tid / 2 < fragments) {
          shards[static_cast<std::size_t>(tid / 2)].assign(kShardSize,
                                                           kInfDist);
        }
      });
      team.run([&](int tid) {
        verify::ScopedSchedule schedule_guard(tid);
        for (std::vector<Distance>& shard : shards) {
          const AtomicDistances view(shard);
          for (VertexId v = 0; v < kShardSize; ++v)
            if (view.load(v) != kInfDist)
              ++not_inf[static_cast<std::size_t>(tid)];
        }
      });
    }
    EXPECT_TRUE(session.ok()) << replay_hint(seed) << ":\n"
                              << session.report_text();
    for (int t = 0; t < threads; ++t) {
      EXPECT_EQ(not_inf[static_cast<std::size_t>(t)], 0u)
          << replay_hint(seed) << ": worker " << t
          << " read an entry of a fresh shard below kInfDist";
    }
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(SchedulerHarness, DeltaSteppingEndToEndSchedulesMatchDijkstra) {
  const SeedRange seeds = harness_seeds(kE2eSeeds / 4);
  for (std::uint64_t seed = seeds.first; seed < seeds.last; ++seed) {
    e2e_one_seed(Algorithm::kDeltaStepping, seed);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(SchedulerHarness, RoundBaselinesEndToEndSchedulesMatchDijkstra) {
  // The other round baselines share delta-stepping's skeleton
  // (sssp/rounds.hpp): block claims, the gather and the round end run
  // under the scheduler for each, with every answer checked against
  // Dijkstra.
  const SeedRange seeds = harness_seeds(kE2eSeeds / 8);
  for (const Algorithm algo :
       {Algorithm::kJulienne, Algorithm::kDeltaStar, Algorithm::kRhoStepping,
        Algorithm::kBellmanFord}) {
    for (std::uint64_t seed = seeds.first; seed < seeds.last; ++seed) {
      e2e_one_seed(algo, seed);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(SchedulerHarness, AsyncBaselinesEndToEndSchedulesMatchDijkstra) {
  // MQ runs the loop of sssp/async_loop.hpp and OBIM its own bag rule;
  // both leave through the quiescence detector, under the scheduler, with
  // every answer checked against Dijkstra.
  const SeedRange seeds = harness_seeds(kE2eSeeds / 8);
  for (const Algorithm algo : {Algorithm::kMqDijkstra, Algorithm::kObim}) {
    for (std::uint64_t seed = seeds.first; seed < seeds.last; ++seed) {
      e2e_one_seed(algo, seed);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// --- seeded repair under the scheduler --------------------------------------
//
// A repair runs the same engine from a warm array and logs every vertex it
// lowers (LoweredLog, sssp/wasp.hpp), so that while its change set is
// narrow the repairer can patch an answer buffer instead of decoding the
// array.
// Each seed solves an e2e case cold, applies a one- or two-arc batch of
// jams and drops, and repairs under the scheduler; the published answer
// must match Dijkstra. A second source then repairs, in a session of its
// own, from a Dijkstra-built answer, which the repair first loads into the
// array with relaxed stores that the engine's launch must publish, as it
// publishes the walk's. The e2e cases are far below kInlineRepairWork, so
// the Solver repairs them on the calling thread alone; the
// engine's multi-worker seeded run (seed levels published before launch,
// concurrent log appends) is driven directly on a 2-4-worker team by the
// case after it, and an escalated repair (a one-worker run paused at its
// budget, then the team resuming from its frontier into the same log) by
// the one after that. The log's own discipline (each worker appends to its
// list, the paused worker to the frontier, the caller reads after the
// join) is pinned by the LoweredLog tests below them.

/// A batch of one or two weight changes on distinct logical edges of `vg`:
/// each a jam (x4) or a drop (halved, at least 1).
GraphDelta small_random_batch(const VersionedGraph& vg, Xoshiro256& rng) {
  GraphDelta batch;
  std::set<std::pair<VertexId, VertexId>> used;
  const int ops = 1 + static_cast<int>(rng.next_below(2));
  for (int op = 0; op < ops; ++op) {
    const auto u = static_cast<VertexId>(rng.next_below(vg.num_vertices()));
    const auto adj = vg.out_neighbors(u);
    if (adj.empty()) continue;
    const WEdge e = adj[rng.next_below(adj.size())];
    std::pair<VertexId, VertexId> key(u, e.dst);
    if (vg.is_undirected() && e.dst < u) std::swap(key.first, key.second);
    if (!used.insert(key).second) continue;
    const bool jam = rng.next_below(2) == 0;
    batch.set_weight(u, e.dst,
                     jam ? e.w * 4 : std::max<Weight>(1, e.w / 2));
  }
  return batch;
}

TEST(SchedulerHarness, SeededRepairSchedulesMatchDijkstra) {
  const SeedRange seeds = harness_seeds(kE2eSeeds / 4);
  std::uint64_t patched = 0;
  for (std::uint64_t seed = seeds.first; seed < seeds.last; ++seed) {
    const int threads = 2 + static_cast<int>(seed % 3);
    const auto& cases = e2e_cases();
    const E2eCase& c = cases[static_cast<std::size_t>(seed % cases.size())];

    SsspOptions options;
    options.algo = Algorithm::kWasp;
    options.threads = threads;
    options.delta = 8;
    options.seed = seed + 1;
    options.wasp.chunk_capacity = 16;
    options.wasp.steal_policy = seed % 2 == 0 ? StealPolicy::kPriorityNuma
                                              : StealPolicy::kTwoChoice;
    VersionedGraph vg{Graph(c.graph)};
    Solver inc(options);
    const std::uint64_t cold_version = vg.version();
    // Cold, outside the model.
    Answer answer = inc.solve(vg, c.source, {}, 0);
    std::uint64_t answered = vg.version();
    const VertexId other = c.source == 0 ? vg.num_vertices() - 1 : 0;
    const Answer other_answer(dijkstra(vg.graph(), other).dist);
    Xoshiro256 rng(hash_mix(seed ^ 0x5EEDULL));

    // The repair processes about the cone plus its seeds, far below
    // kInlineRepairWork on these cases, so it stays inline: a scheduler
    // round of one participant (the escalation is the next harness's).
    ASSERT_LT(2 * std::uint64_t{vg.num_vertices()}, kInlineRepairWork);
    // One session per repair. The working buffer's patch or copy and the
    // walk's stores are the caller's plain writes, made before the engine's
    // launch, so each session's model starts from the buffer as they left
    // it.
    const auto scheduled = [&](const auto& repair) {
      Session session(session_options(1, seed));
      Scheduler scheduler(scheduler_options(1, seed));
      repair();
      EXPECT_TRUE(session.ok()) << replay_hint(seed) << ":\n"
                                << session.report_text();
    };
    using CId = obs::CounterId;
    // Two batches, each repaired under the model. The first copies the cold
    // answer, which has no buffer one publish behind it. The cold answer is
    // dropped outside the session, so the second patches its buffer forward
    // over the first's change set, unless that set was too wide to keep.
    for (int round = 0; round < 2; ++round) {
      GraphDelta batch;
      while (batch.empty()) batch = small_random_batch(vg, rng);
      (void)vg.apply(batch);
      const SsspResult reference = dijkstra(vg.graph(), c.source);
      Answer repaired;
      obs::MetricsSnapshot rs;
      scheduled([&] {
        repaired = inc.solve(vg, c.source, answer, answered);
        rs = inc.last_metrics();
      });
      answer = repaired;
      answered = vg.version();
      EXPECT_EQ(rs.counter(CId::kRepairFullSolves), 0u) << replay_hint(seed);
      EXPECT_EQ(rs.counter(CId::kRepairEscalations), 0u) << replay_hint(seed);
      const bool patched_now = rs.counter(CId::kRepairRecycled) == 1;
      if (patched_now) ++patched;
      std::string message;
      EXPECT_TRUE(distances_equal(reference.dist, repaired, &message))
          << replay_hint(seed) << " (threads=" << threads << ", round="
          << round << ", cone=" << rs.counter(CId::kRepairConeVertices)
          << ", lowered=" << rs.counter(CId::kUpdates)
          << ", patched=" << patched_now << "): " << message;
    }

    const SsspResult other_reference = dijkstra(vg.graph(), other);
    Answer other_repaired;
    scheduled([&] {
      other_repaired = inc.solve(vg, other, other_answer, cold_version);
    });
    EXPECT_EQ(inc.last_metrics().counter(CId::kRepairFullSolves), 0u)
        << replay_hint(seed);
    std::string message;
    EXPECT_TRUE(
        distances_equal(other_reference.dist, other_repaired, &message))
        << replay_hint(seed) << " (loaded source " << other << "): " << message;
    if (::testing::Test::HasFailure()) return;
  }
  if (seeds.last - seeds.first == kE2eSeeds / 4) {
    EXPECT_GT(patched, 0u) << "no repair in the sweep patched its answer";
  }
}

/// A seeded run's input as a repair too wide to finish inline hands it to
/// the engine. One or two arcs of an e2e case drop, the old exact
/// distances are pre-loaded (admissible: a drop only lowers distances),
/// and a random third of the vertices is invalidated to infinity. The
/// seeds are the drop sources plus the finite in-neighbours of the
/// invalidated set, so relaxing from them reaches the new exact distances.
struct WarmCase {
  VersionedGraph vg;
  std::vector<Distance> preloaded;
  std::vector<VertexId> seeds;
  std::vector<Distance> reference;
};

WarmCase make_warm_case(const E2eCase& c, std::uint64_t seed) {
  const VertexId n = c.graph.num_vertices();
  const std::vector<Distance> old_dist = dijkstra(c.graph, c.source).dist;
  Xoshiro256 rng(hash_mix(seed ^ 0x7EA5ULL));
  WarmCase w{VersionedGraph{Graph(c.graph)}, {}, {}, {}};
  GraphDelta drops;
  std::vector<std::uint8_t> seeded(n, 0);
  const auto add_seed = [&](VertexId u) {
    if (seeded[u] || old_dist[u] == kInfDist) return;
    seeded[u] = 1;
    w.seeds.push_back(u);
  };
  for (int op = 0; op < 2; ++op) {
    const auto u = static_cast<VertexId>(rng.next_below(n));
    const auto adj = w.vg.out_neighbors(u);
    if (adj.empty()) continue;
    const WEdge e = adj[rng.next_below(adj.size())];
    if (seeded[u] || seeded[e.dst]) continue;  // one change per edge
    drops.set_weight(u, e.dst, std::max<Weight>(1, e.w / 2));
    add_seed(u);
    if (w.vg.is_undirected()) add_seed(e.dst);
  }
  if (!drops.empty()) (void)w.vg.apply(drops);
  const Graph& g = w.vg.graph();
  w.reference = dijkstra(g, c.source).dist;

  std::vector<std::uint8_t> invalid(n, 0);
  w.preloaded.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    invalid[v] = v != c.source && rng.next_below(3) == 0;
    w.preloaded[v] = invalid[v] ? kInfDist : old_dist[v];
  }
  const Graph in = GraphBuilder().transpose_of(g).build();
  for (VertexId v = 0; v < n; ++v) {
    if (!invalid[v]) continue;
    for (const WEdge& e : in.out_neighbors(v))
      if (!invalid[e.dst]) add_seed(e.dst);
  }
  return w;
}

WaspConfig harness_wasp_config(std::uint64_t seed) {
  static const auto topology =
      std::make_shared<const NumaTopology>(NumaTopology::detect());
  WaspConfig config;
  config.theta = 64;
  config.chunk_capacity = 16;
  config.steal_policy = seed % 2 == 0 ? StealPolicy::kPriorityNuma
                                      : StealPolicy::kTwoChoice;
  config.topology = topology;
  return config;
}

/// Every vertex whose value moved from `preloaded` is in the log.
void expect_logged(const std::vector<Distance>& preloaded,
                   const std::vector<Distance>& answer, const LoweredLog& log,
                   std::uint64_t seed) {
  std::vector<std::uint8_t> in_log(answer.size(), 0);
  for (int t = 0; t < log.workers(); ++t)
    for (const VertexId v : log.list(t)) in_log[v] = 1;
  for (VertexId v = 0; v < answer.size(); ++v) {
    if (answer[v] != preloaded[v]) {
      EXPECT_TRUE(in_log[v]) << replay_hint(seed) << ": vertex " << v
                             << " moved but is not in the log";
    }
  }
}

TEST(SchedulerHarness, SeededTeamRunsMatchDijkstra) {
  // wasp_sssp_seeded on a 2-4-worker team, from make_warm_case's input;
  // the log must hold every vertex whose bound moved.
  const SeedRange seeds = harness_seeds(kE2eSeeds / 4);
  std::uint64_t logged = 0;
  for (std::uint64_t seed = seeds.first; seed < seeds.last; ++seed) {
    const int threads = 2 + static_cast<int>(seed % 3);
    const auto& cases = e2e_cases();
    const E2eCase& c = cases[static_cast<std::size_t>(seed % cases.size())];
    WarmCase w = make_warm_case(c, seed);
    std::vector<Distance> answer = w.preloaded;
    AtomicDistances dist(answer);

    const WaspConfig config = harness_wasp_config(seed);
    ThreadTeam team(threads);
    obs::MetricsRegistry registry(threads);
    LoweredLog log;
    log.reset(threads);
    RunContext ctx{team, registry};
    ctx.dist = &dist;
    SsspResult result;
    Session session(session_options(threads, seed));
    {
      Scheduler scheduler(scheduler_options(threads, seed));
      result = wasp_sssp_seeded(w.vg.graph(), w.seeds, 8, config, ctx, log);
      EXPECT_TRUE(session.ok()) << replay_hint(seed) << ":\n"
                                << session.report_text();
    }
    std::string message;
    EXPECT_TRUE(distances_equal(w.reference, answer, &message))
        << replay_hint(seed) << " (threads=" << threads
        << ", seeds=" << w.seeds.size() << "): " << message;
    EXPECT_EQ(log.workers(), threads) << replay_hint(seed);
    EXPECT_EQ(log.size(),
              result.metrics.counter(obs::CounterId::kUpdates))
        << replay_hint(seed);
    expect_logged(w.preloaded, answer, log, seed);
    if (log.size() > 0) ++logged;
    if (::testing::Test::HasFailure()) return;
  }
  if (seeds.last - seeds.first == kE2eSeeds / 4) {
    EXPECT_GT(logged, 0u) << "no seeded run in the sweep lowered a vertex";
  }
}

TEST(SchedulerHarness, EscalatedRepairSchedulesMatchDijkstra) {
  // An escalated repair in two halves, as a Solver's repair runs one: a
  // one-worker run with a small budget under a one-participant schedule,
  // then, if it paused with work left, a 2-4-worker run under a team-sized
  // schedule that resumes from the paused frontier into the same log. The
  // paused worker fires no on_termination and the team's fire one each; the
  // answer must match Dijkstra and the log must hold every vertex that
  // moved. At budget 0 the run pauses before its first vertex, so its
  // frontier is exactly the finite seeds.
  const SeedRange seeds = harness_seeds(kE2eSeeds / 4);
  std::uint64_t escalated = 0;
  for (std::uint64_t seed = seeds.first; seed < seeds.last; ++seed) {
    const int threads = 2 + static_cast<int>(seed % 3);
    const std::uint64_t budget = seed % 24;
    const auto& cases = e2e_cases();
    const E2eCase& c = cases[static_cast<std::size_t>(seed % cases.size())];
    WarmCase w = make_warm_case(c, seed);
    const Graph& g = w.vg.graph();
    std::vector<Distance> answer = w.preloaded;
    AtomicDistances dist(answer);
    const WaspConfig config = harness_wasp_config(seed);
    obs::MetricsRegistry registry(threads);
    LifecycleHooks hooks;

    ThreadTeam solo(1);
    LoweredLog log;
    log.reset(threads);
    RunContext inline_ctx{solo, registry, nullptr, &hooks};
    inline_ctx.dist = &dist;
    SsspResult inline_result;
    {
      Session session(session_options(1, seed));
      Scheduler scheduler(scheduler_options(1, seed));
      inline_result =
          wasp_sssp_seeded(g, w.seeds, 8, config, inline_ctx, log, budget);
      EXPECT_TRUE(session.ok()) << replay_hint(seed) << ":\n"
                                << session.report_text();
    }
    const std::uint64_t processed = inline_result.metrics.counter(
        obs::CounterId::kVerticesProcessed);
    EXPECT_LE(processed, budget) << replay_hint(seed);
    // A run short of its budget converged: it left no frontier.
    if (processed < budget) {
      EXPECT_FALSE(log.stopped()) << replay_hint(seed);
    }
    if (budget == 0) {
      std::vector<VertexId> finite;
      for (const VertexId u : w.seeds) {
        if (w.preloaded[u] != kInfDist) finite.push_back(u);
      }
      std::vector<VertexId> frontier(log.frontier().begin(),
                                     log.frontier().end());
      std::sort(finite.begin(), finite.end());
      std::sort(frontier.begin(), frontier.end());
      EXPECT_EQ(frontier, finite) << replay_hint(seed);
    }

    if (log.stopped()) {
      ++escalated;
      EXPECT_EQ(hooks.terminations.load(), 0u) << replay_hint(seed);
      ThreadTeam team(threads);
      RunContext team_ctx{team, registry, nullptr, &hooks};
      team_ctx.dist = &dist;
      Session session(session_options(threads, seed));
      Scheduler scheduler(scheduler_options(threads, seed));
      // A budget on a team is ignored: the run converges.
      (void)wasp_sssp_seeded(g, log.frontier(), 8, config, team_ctx, log, 0);
      EXPECT_TRUE(session.ok()) << replay_hint(seed) << ":\n"
                                << session.report_text();
      EXPECT_EQ(hooks.terminations.load(),
                static_cast<std::uint64_t>(threads))
          << replay_hint(seed);
    } else {
      // A converged run terminates; one paused with nothing left does not.
      EXPECT_EQ(hooks.terminations.load(),
                processed > 0 && processed < budget ? 1u : 0u)
          << replay_hint(seed);
    }
    std::string message;
    EXPECT_TRUE(distances_equal(w.reference, answer, &message))
        << replay_hint(seed) << " (threads=" << threads << ", budget="
        << budget << ", escalated=" << log.stopped() << "): " << message;
    expect_logged(w.preloaded, answer, log, seed);
    if (::testing::Test::HasFailure()) return;
  }
  if (seeds.last - seeds.first == kE2eSeeds / 4) {
    EXPECT_GT(escalated, 0u) << "no repair in the sweep escalated";
  }
}

TEST(LoweredLogHarness, ReadsAfterABarrierAreRaceFree) {
  const SeedRange seeds = harness_seeds();
  for (std::uint64_t seed = seeds.first; seed < seeds.last; ++seed) {
    constexpr int kThreads = 3;
    LoweredLog log;
    log.reset(kThreads);
    ModelBarrier barrier(kThreads);
    std::size_t total = 0;
    Session session(session_options(kThreads, seed));
    run_bound(session, kThreads, [&](int tid) {
      for (int i = 0; i <= tid; ++i)
        log.append(tid, static_cast<VertexId>(tid * 100 + i));
      barrier.wait();
      if (tid == 0) total = log.size();
    });
    ASSERT_TRUE(session.ok()) << replay_hint(seed) << ":\n"
                              << session.report_text();
    ASSERT_EQ(total, 6u);
    for (int t = 0; t < kThreads; ++t)
      ASSERT_EQ(log.list(t).size(), static_cast<std::size_t>(t + 1));
  }
}

#if defined(WASP_VERIFY_ENABLED) && WASP_VERIFY_ENABLED
TEST(LoweredLogHarness, ReadBeforeTheJoinIsReportedAsRace) {
  // The caller reading a worker's list, or the frontier a paused worker
  // hands over, while that worker may still write it: the plain-access
  // hooks must flag both.
  {
    LoweredLog log;
    log.reset(2);
    Session session(session_options(2, 5));
    run_bound(session, 2, [&](int tid) {
      if (tid == 0) {
        (void)log.list(1).size();
      } else {
        log.append(1, 42);
      }
    });
    EXPECT_FALSE(session.ok())
        << "a read of a worker's log not ordered after its appends must be "
           "flagged";
  }
  {
    LoweredLog log;
    log.reset(1);
    Session session(session_options(2, 5));
    run_bound(session, 2, [&](int tid) {
      if (tid == 0) {
        (void)log.stopped();
      } else {
        log.pause(42);
      }
    });
    EXPECT_FALSE(session.ok())
        << "a read of the frontier not ordered after the pause must be "
           "flagged";
  }
}
#endif  // WASP_VERIFY_ENABLED

// --- Wasp park protocol under the scheduler --------------------------------
//
// One busy worker walks a path while its peers spend their spin rounds and
// park (sssp/wasp.cpp, park()). Under the model a parked worker's wait
// spins through instrumented loads; when no wake-up ever reaches it, the
// wait reports a stuck wait and the session fails with a replayable seed.
// A lost wake-up needs a park decision that races the walker's exit, so
// the path lengths straddle the point where an idle worker's spin budget
// runs out just as the walker finishes (that point grows with the thread
// count). Every seed runs twice: as one fragment, and cut into two
// fragments mid-path. The second walk crosses a remote queue, and the
// walker of the first half hands over through a published batch and later
// votes, so parked workers must be woken by a publish and by a vote, not
// only by an exit. This sweep is the kill suite for the park-site mutants in
// docs/CONCURRENCY.md: the parker's re-scan, the exit, publish and vote
// wakes, and both park fences.

#if defined(WASP_VERIFY_ENABLED) && WASP_VERIFY_ENABLED
constexpr std::uint64_t kParkSeeds = 480;
#else
constexpr std::uint64_t kParkSeeds = 12;
#endif

TEST(WaspParkProtocol, NarrowSchedulesNeverStrandAParkedWorker) {
  const auto path = [](VertexId n) {
    std::vector<Edge> edges;
    for (VertexId u = 0; u + 1 < n; ++u)
      edges.push_back(Edge{u, u + 1, 1 + u % 5});
    return GraphBuilder().edges(n, std::move(edges)).undirected(true).build();
  };

  const auto two_nodes =
      std::make_shared<const NumaTopology>(NumaTopology::synthetic(1, 2, 2));
  std::uint64_t parks[2] = {0, 0};  // by fragment count - 1
  const SeedRange seeds = harness_seeds(kParkSeeds);
  for (std::uint64_t seed = seeds.first; seed < seeds.last; ++seed) {
    for (const int fragments : {1, 2}) {
      const int threads = 2 + static_cast<int>(seed % 3);
      // Two fragments: each half of the path straddles the spin budget.
      const VertexId base = threads == 2 ? 50 : threads == 3 ? 64 : 84;
      const Graph g = path(static_cast<VertexId>(fragments) *
                           (base + static_cast<VertexId>((seed / 3) % 16)));
      const SsspResult reference = dijkstra(g, 0);

      SsspOptions options;
      options.algo = Algorithm::kWasp;
      options.threads = threads;
      options.delta = Weight{1} << 20;  // one bucket: the walk never migrates
      options.seed = seed + 1;
      if (fragments == 2) {
        options.wasp.topology = two_nodes;
        options.wasp.partition.enabled = true;
        options.wasp.partition.num_fragments = 2;
      }
      Session session(session_options(threads, seed));
      {
        Scheduler scheduler(scheduler_options(threads, seed));
        const SsspResult result = Solver(options).solve(g, 0);
        parks[fragments - 1] +=
            result.metrics.counter(obs::CounterId::kWorkerParks);
        EXPECT_TRUE(session.ok())
            << replay_hint(seed) << " (fragments=" << fragments << "):\n"
            << session.report_text();
        std::string message;
        EXPECT_TRUE(distances_equal(reference.dist, result.dist, &message))
            << replay_hint(seed) << " (threads=" << threads
            << ", fragments=" << fragments << ", n=" << g.num_vertices()
            << "): " << message;
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
  if (kModelOn && seeds.last - seeds.first == kParkSeeds) {
    for (int f = 0; f < 2; ++f) {
      EXPECT_GT(parks[f], 0u)
          << "no " << f + 1 << "-fragment schedule parked a worker: the "
          << "sweep cannot see the protocol";
    }
  }
}

TEST(SchedulerHarness, PinnedSeedReplaysScheduleBitForBit) {
  // Replay contract: the schedule is a pure function of the seed. Two runs
  // of the pinned seed must execute the identical decision sequence
  // (FNV-1a fingerprint over every token grant, schedule point, and switch
  // target), and a different seed must diverge — otherwise the replay
  // command printed by replay_hint() would not reproduce failures.
  const E2eOutcome first = e2e_one_seed(Algorithm::kWasp, kPinnedSeed);
  const E2eOutcome second = e2e_one_seed(Algorithm::kWasp, kPinnedSeed);
  EXPECT_EQ(first.schedule_hash, second.schedule_hash)
      << "same seed, different schedule: replay is broken";
  EXPECT_EQ(first.schedule_points, second.schedule_points);
  EXPECT_EQ(first.switches, second.switches);
  if (kModelOn) {
    // The pinned schedule must actually exercise the scheduler: solver
    // threads reach instrumented operations and get preempted there.
    EXPECT_GT(first.schedule_points, 100u)
        << "the pinned schedule barely entered the instrumented solver";
    EXPECT_GT(first.switches, 0u)
        << "the pinned schedule never preempted: switch_rate plumbing lost";
    // Same thread count (kPinnedSeed + 3 keeps seed % 3), different
    // decision stream.
    const E2eOutcome other = e2e_one_seed(Algorithm::kWasp, kPinnedSeed + 3);
    EXPECT_NE(first.schedule_hash, other.schedule_hash)
        << "different seeds produced identical schedules";
  }
}

#if defined(WASP_VERIFY_ENABLED) && WASP_VERIFY_ENABLED
TEST(SchedulerHarness, PinnedFaultSeedsReplayBitForBit) {
  // Faults are scheduler actions, so a fault seed replays like any other:
  // the same decisions, faults included, and the same answer or history.
  // The pinned seeds are fault seeds that run 4 workers, one per e2e graph
  // in turn. Together they fire every fault, which a single seed's few
  // termination verdicts cannot promise.
  std::array<std::uint64_t, verify::kNumFaults> fired{};
  for (const std::uint64_t seed : {8, 23, 38, 53, 68, 83, 98, 113}) {
    ASSERT_TRUE(Scheduler::faults_armed(seed));
    const E2eOutcome first = e2e_one_seed(Algorithm::kWasp, seed);
    const E2eOutcome second = e2e_one_seed(Algorithm::kWasp, seed);
    EXPECT_EQ(first.schedule_hash, second.schedule_hash)
        << replay_hint(seed) << ": same fault seed, different schedule";
    EXPECT_EQ(first.faults, second.faults) << replay_hint(seed);
    EXPECT_EQ(first.dist, second.dist) << replay_hint(seed);
    for (std::size_t f = 0; f < verify::kNumFaults; ++f)
      fired[f] += first.faults[f];
  }
  for (std::size_t f = 0; f < verify::kNumFaults; ++f)
    EXPECT_GT(fired[f], 0u) << "fault " << f << " never fired";

  // The linearizability harnesses run under the scheduler too: a pinned
  // seed reproduces its whole recorded history, timestamps included.
  HarnessRun runs[2];
  for (HarnessRun& run : runs) {
    mq_harness_one_seed(8, &run);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
  EXPECT_EQ(runs[0].schedule_hash, runs[1].schedule_hash)
      << "same seed, different harness schedule: replay is broken";
  EXPECT_EQ(runs[0].faults, runs[1].faults);
  EXPECT_TRUE(runs[0].history == runs[1].history)
      << "same seed, different recorded history: replay is broken";
}
#endif  // WASP_VERIFY_ENABLED

TEST(SchedulerHarness, ModelBarrierDeltaSteppingRoundInSitu) {
  // One hand-rolled delta-stepping round under the scheduler, with the
  // phase discipline carried by ModelBarrier: every thread relaxes its
  // share of the source's out-edges (CAS loops on checked distances),
  // inserts the improved vertices into the FrontierBag, and the bag's
  // insert -> compute_offsets -> copy_out_and_clear contract is checked in
  // situ against the model — the same contract the round baselines rely
  // on, here with real relaxation between the barriers instead of a
  // synthetic fill.
  const Graph g = gen::grid(5, 5, WeightScheme::gap(), 31);
  const VertexId src = pick_source_in_largest_component(g, 7);
  const auto edges = g.out_neighbors(src);
  ASSERT_GT(edges.size(), 1u);

  const SeedRange seeds = harness_seeds(kE2eSeeds / 4);
  for (std::uint64_t seed = seeds.first; seed < seeds.last; ++seed) {
    constexpr int kThreads = 3;
    FrontierBag bag(kThreads);
    ModelBarrier barrier(kThreads);
    std::unique_ptr<verify::atomic<Distance>[]> dist(
        new verify::atomic<Distance>[g.num_vertices()]);
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      dist[v].store(v == src ? 0 : kInfDist, std::memory_order_relaxed);
    std::vector<VertexId> frontier(edges.size(), kInvalidVertex);
    std::size_t total = 0;

    Session session(session_options(kThreads, seed));
    {
      Scheduler scheduler(scheduler_options(kThreads, seed));
      run_bound(session, kThreads, [&](int tid) {
        for (std::size_t i = static_cast<std::size_t>(tid); i < edges.size();
             i += kThreads) {
          const VertexId v = edges[i].dst;
          const Distance cand = edges[i].w;  // dist[src] == 0
          Distance cur = dist[v].load(std::memory_order_relaxed);
          while (cand < cur &&
                 !dist[v].compare_exchange_weak(cur, cand,
                                                std::memory_order_acq_rel,
                                                std::memory_order_relaxed)) {
          }
          if (cand < cur) bag.insert(tid, v);
        }
        barrier.wait();
        if (tid == 0) total = bag.compute_offsets();
        barrier.wait();
        bag.copy_out_and_clear(tid, frontier.data());
      });
    }
    ASSERT_TRUE(session.ok()) << replay_hint(seed) << ":\n"
                              << session.report_text();

    // The grid source's neighbors are distinct, all previously unreached:
    // the round must put each of them in the frontier exactly once with
    // its edge weight as the settled tentative distance.
    ASSERT_EQ(total, edges.size()) << replay_hint(seed);
    std::vector<VertexId> sorted(frontier.begin(), frontier.end());
    std::sort(sorted.begin(), sorted.end());
    for (const auto& e : edges) {
      ASSERT_TRUE(std::binary_search(sorted.begin(), sorted.end(), e.dst))
          << replay_hint(seed) << ": vertex " << e.dst
          << " missing from the copied-out frontier";
      ASSERT_EQ(dist[e.dst].load(std::memory_order_relaxed), e.w)
          << replay_hint(seed) << ": wrong settled distance for " << e.dst;
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace wasp
