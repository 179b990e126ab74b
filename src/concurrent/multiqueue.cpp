#include "concurrent/multiqueue.hpp"

#include <algorithm>
#include <mutex>

namespace wasp {

MultiQueue::MultiQueue(const Config& config)
    : config_(config),
      queues_(static_cast<std::size_t>(config.threads) *
              static_cast<std::size_t>(config.c)),
      per_thread_(static_cast<std::size_t>(config.threads)) {
  for (int t = 0; t < config.threads; ++t) {
    auto& me = per_thread_[static_cast<std::size_t>(t)].value;
    me.rng = Xoshiro256(hash_mix(config.seed + static_cast<std::uint64_t>(t)));
    me.insert_buffer.reserve(static_cast<std::size_t>(config.buffer_size));
    me.delete_buffer.reserve(static_cast<std::size_t>(config.buffer_size));
  }
}

void MultiQueue::push(int tid, Distance key, VertexId value) {
  auto& me = per_thread_[static_cast<std::size_t>(tid)].value;
  me.insert_buffer.push_back(Entry{key, value});
  if (me.insert_buffer.size() >= static_cast<std::size_t>(config_.buffer_size))
    flush(tid);
}

void MultiQueue::flush(int tid) {
  auto& me = per_thread_[static_cast<std::size_t>(tid)].value;
  if (me.insert_buffer.empty()) return;
  Timer timer;
  const auto qi = static_cast<std::size_t>(me.rng.next_below(queues_.size()));
  InternalQueue& q = queues_[qi].value;
  {
    SpinGuard guard(q.lock);
    WASP_VERIFY_WR(&q.heap);
    for (const Entry& e : me.insert_buffer) q.heap.push(e.key, e.value);
    // Relaxed: top_key is a sampling hint; the heap itself is published by
    // the SpinLock release on unlock.
    q.top_key.store(q.heap.top().key, std::memory_order_relaxed);
  }
  me.insert_buffer.clear();
  me.queue_op_ns += timer.nanoseconds();
}

int MultiQueue::pick_queue_two_choice(PerThread& me) {
  const auto n = queues_.size();
  const auto a = static_cast<std::size_t>(me.rng.next_below(n));
  const auto b = static_cast<std::size_t>(me.rng.next_below(n));
  // Relaxed: two-choice sampling is advisory — a stale key only biases the
  // pick; the queue lock re-validates before anything is popped.
  const Distance ka = queues_[a].value.top_key.load(std::memory_order_relaxed);
  const Distance kb = queues_[b].value.top_key.load(std::memory_order_relaxed);
  return static_cast<int>(ka <= kb ? a : b);
}

bool MultiQueue::take_batch(InternalQueue& q, PerThread& me) {
  // Advisory early-out: a stale non-inf value is re-validated under the
  // lock below; a stale inf just skips the queue.
  if (q.top_key.load(std::memory_order_relaxed) == kInfDist) return false;
  SpinGuard guard(q.lock);
  if (q.heap.empty()) return false;
  WASP_VERIFY_WR(&q.heap);
  const auto batch = std::min<std::size_t>(
      static_cast<std::size_t>(config_.buffer_size), q.heap.size());
  me.delete_buffer.clear();
  me.delete_cursor = 0;
  for (std::size_t i = 0; i < batch; ++i) {
    const auto e = q.heap.pop();
    me.delete_buffer.push_back(Entry{e.key, e.value});
  }
  // Relaxed hint refresh under the queue lock (see flush).
  q.top_key.store(q.heap.empty() ? kInfDist : q.heap.top().key,
                  std::memory_order_relaxed);
  return true;
}

bool MultiQueue::refill(int /*tid*/, PerThread& me) {
  Timer timer;
  // Try a bounded number of sampled queues first; stale entries make
  // single-sample failures common.
  bool took = false;
  for (int attempt = 0;
       !took && attempt < 2 * config_.c * config_.threads + 2; ++attempt) {
    int qi;
    if (me.sticky_left > 0 && me.sticky_queue >= 0) {
      qi = me.sticky_queue;
    } else {
      qi = pick_queue_two_choice(me);
      me.sticky_queue = qi;
      me.sticky_left = config_.stickiness;
    }
    --me.sticky_left;
    took = take_batch(queues_[static_cast<std::size_t>(qi)].value, me);
    if (!took) me.sticky_left = 0;  // empty queue: re-sample next time
  }
  // Sampling can miss the only non-empty queue. Visit every queue once
  // before reporting empty, so that on a quiescent structure false means
  // truly empty.
  for (std::size_t qi = 0; !took && qi < queues_.size(); ++qi)
    took = take_batch(queues_[qi].value, me);
  me.queue_op_ns += timer.nanoseconds();
  return took;
}

bool MultiQueue::try_pop(int tid, Distance& key, VertexId& value) {
  auto& me = per_thread_[static_cast<std::size_t>(tid)].value;
  if (me.delete_cursor >= me.delete_buffer.size()) {
    // Make our own pending insertions visible before declaring emptiness.
    flush(tid);
    if (!refill(tid, me)) return false;
  }
  const Entry e = me.delete_buffer[me.delete_cursor++];
  key = e.key;
  value = e.value;
  return true;
}

}  // namespace wasp
