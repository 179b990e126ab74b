// Tests for the MultiQueue relaxed priority queue: sequential semantics,
// buffering, rank relaxation bounds, instrumentation, and concurrent
// exactly-once consumption.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <vector>

#include "concurrent/multiqueue.hpp"
#include "support/thread_team.hpp"

namespace wasp {
namespace {

MultiQueue::Config config_for(int threads, int buffer = 4) {
  MultiQueue::Config c;
  c.threads = threads;
  c.c = 2;
  c.stickiness = 4;
  c.buffer_size = buffer;
  c.seed = 7;
  return c;
}

TEST(MultiQueue, SingleThreadPopsEverything) {
  MultiQueue mq(config_for(1));
  for (VertexId v = 0; v < 100; ++v) mq.push(0, 1000 - v, v);
  std::set<VertexId> seen;
  Distance d;
  VertexId v;
  while (mq.try_pop(0, d, v)) {
    EXPECT_EQ(d, 1000 - v);
    EXPECT_TRUE(seen.insert(v).second);
  }
  EXPECT_EQ(seen.size(), 100u);
}

TEST(MultiQueue, PopOrderIsApproximatelySorted) {
  // With a single thread and c=2 there are 2 internal queues; the two-choice
  // rule bounds how far pops stray from the global minimum.
  MultiQueue mq(config_for(1, /*buffer=*/1));
  for (VertexId v = 0; v < 1000; ++v) mq.push(0, v, v);
  Distance prev_max = 0;
  Distance d;
  VertexId v;
  std::vector<Distance> popped;
  while (mq.try_pop(0, d, v)) popped.push_back(d);
  ASSERT_EQ(popped.size(), 1000u);
  // Relaxed, not sorted — but the sequence must trend upward: the max
  // rank error for 2 queues is small, so the i-th pop is near i.
  for (std::size_t i = 0; i < popped.size(); ++i) {
    EXPECT_LE(popped[i], i + 600) << "pop " << i << " strayed too far";
    prev_max = std::max(prev_max, popped[i]);
  }
  EXPECT_EQ(prev_max, 999u);
}

TEST(MultiQueue, FlushMakesBufferedElementsVisible) {
  MultiQueue mq(config_for(2, /*buffer=*/16));
  mq.push(0, 5, 50);  // sits in thread 0's insertion buffer
  mq.flush(0);
  Distance d;
  VertexId v;
  // Thread 1 can now pop it.
  ASSERT_TRUE(mq.try_pop(1, d, v));
  EXPECT_EQ(d, 5u);
  EXPECT_EQ(v, 50u);
}

TEST(MultiQueue, TryPopFlushesOwnBuffer) {
  MultiQueue mq(config_for(1, /*buffer=*/16));
  mq.push(0, 9, 90);  // buffered, never explicitly flushed
  Distance d;
  VertexId v;
  ASSERT_TRUE(mq.try_pop(0, d, v));
  EXPECT_EQ(v, 90u);
  EXPECT_FALSE(mq.try_pop(0, d, v));
}

TEST(MultiQueue, QueueOpTimeAccumulates) {
  MultiQueue mq(config_for(1, /*buffer=*/2));
  for (VertexId v = 0; v < 1000; ++v) mq.push(0, v, v);
  Distance d;
  VertexId v;
  while (mq.try_pop(0, d, v)) {
  }
  EXPECT_GT(mq.queue_op_ns(0), 0u);
}

TEST(MultiQueue, InternalQueueCount) {
  MultiQueue mq(config_for(4));
  EXPECT_EQ(mq.num_internal_queues(), 8);  // c * p
}

TEST(MultiQueue, ConcurrentExactlyOnce) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  MultiQueue mq(config_for(kThreads));
  std::vector<std::atomic<int>> consumed(kThreads * kPerThread);
  for (auto& c : consumed) c.store(0);
  std::atomic<std::int64_t> popped_total{0};

  ThreadTeam team(kThreads);
  team.run([&](int tid) {
    // Each thread pushes its own block, then everyone drains.
    for (int i = 0; i < kPerThread; ++i) {
      const auto v = static_cast<VertexId>(tid * kPerThread + i);
      mq.push(tid, v % 1024, v);
    }
    mq.flush(tid);
    Distance d;
    VertexId v;
    for (;;) {
      if (mq.try_pop(tid, d, v)) {
        EXPECT_EQ(consumed[v].fetch_add(1, std::memory_order_acq_rel), 0);
        popped_total.fetch_add(1, std::memory_order_acq_rel);
      } else if (popped_total.load(std::memory_order_acquire) ==
                 kThreads * kPerThread) {
        break;  // every element is out; a failed pop is no proof of that
      }
    }
  });

  EXPECT_EQ(popped_total.load(), kThreads * kPerThread);
  for (auto& c : consumed) EXPECT_EQ(c.load(), 1);
}

}  // namespace
}  // namespace wasp
