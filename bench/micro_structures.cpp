// Micro-benchmarks (google-benchmark) for the concurrent data structures
// backing the paper's §4.3 design claims: constant-time chunk operations,
// cheap Chase-Lev owner operations, the d-ary heap's logarithmic cost the
// MultiQueue pays per element (the "sequential costs of managing the
// priority queue" of Figure 2), and steal throughput under contention.
#include <benchmark/benchmark.h>

#include <vector>

#include "concurrent/chase_lev_deque.hpp"
#include "concurrent/chunk.hpp"
#include "concurrent/dary_heap.hpp"
#include "concurrent/multiqueue.hpp"
#include "support/random.hpp"
#include "support/types.hpp"

namespace {

using namespace wasp;

void BM_ChunkPushPop(benchmark::State& state) {
  Chunk chunk;
  for (auto _ : state) {
    for (std::uint32_t i = 0; i < Chunk::kCapacity; ++i) chunk.push(i);
    VertexId sum = 0;
    while (!chunk.empty()) sum += chunk.pop();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * Chunk::kCapacity);
}
BENCHMARK(BM_ChunkPushPop);

void BM_ChunkPoolGetPut(benchmark::State& state) {
  ChunkArena arena;
  ChunkPool pool(arena);
  for (auto _ : state) {
    Chunk* c = pool.get();
    benchmark::DoNotOptimize(c);
    pool.put(c);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChunkPoolGetPut);

void BM_DequeOwnerPushPop(benchmark::State& state) {
  ChaseLevDeque<Chunk*> dq;
  Chunk c;
  for (auto _ : state) {
    dq.push_bottom(&c);
    benchmark::DoNotOptimize(dq.pop_bottom());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DequeOwnerPushPop);

void BM_DequeStealThroughput(benchmark::State& state) {
  // Thread 0 is the owner (pushes), the rest steal.
  static ChaseLevDeque<Chunk*>* dq = nullptr;
  static Chunk chunk;
  if (state.thread_index() == 0) dq = new ChaseLevDeque<Chunk*>();
  for (auto _ : state) {
    if (state.thread_index() == 0) {
      dq->push_bottom(&chunk);
      benchmark::DoNotOptimize(dq->pop_bottom());
    } else {
      benchmark::DoNotOptimize(dq->steal());
    }
  }
  if (state.thread_index() == 0) {
    state.SetItemsProcessed(state.iterations());
    delete dq;
    dq = nullptr;
  }
}
BENCHMARK(BM_DequeStealThroughput)->Threads(1)->Threads(2)->Threads(4)
    ->UseRealTime();

template <unsigned D>
void BM_DaryHeapPushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(1);
  std::vector<Distance> keys(n);
  for (auto& k : keys) k = static_cast<Distance>(rng.next_below(1u << 20));
  for (auto _ : state) {
    DaryHeap<Distance, VertexId, D> heap;
    for (std::size_t i = 0; i < n; ++i)
      heap.push(keys[i], static_cast<VertexId>(i));
    Distance sum = 0;
    while (!heap.empty()) sum += heap.pop().key;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
// 8-ary (the MultiQueue's configuration) vs binary: wider heaps win.
BENCHMARK(BM_DaryHeapPushPop<2>)->Arg(1 << 12);
BENCHMARK(BM_DaryHeapPushPop<4>)->Arg(1 << 12);
BENCHMARK(BM_DaryHeapPushPop<8>)->Arg(1 << 12);

void BM_MultiQueuePushPop(benchmark::State& state) {
  MultiQueue::Config config;
  config.threads = 1;
  config.c = 2;
  config.stickiness = 8;
  config.buffer_size = 16;
  MultiQueue mq(config);
  Xoshiro256 rng(2);
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i)
      mq.push(0, static_cast<Distance>(rng.next_below(1u << 16)),
              static_cast<VertexId>(i));
    Distance d;
    VertexId v;
    while (mq.try_pop(0, d, v)) benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_MultiQueuePushPop);

}  // namespace

BENCHMARK_MAIN();
