#include "sssp/obim.hpp"

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "concurrent/spinlock.hpp"
#include "support/padded.hpp"
#include "support/thread_team.hpp"
#include "support/timer.hpp"
#include "verify/checked_atomic.hpp"

namespace wasp {

namespace {

using CId = obs::CounterId;

constexpr std::uint64_t kInfLevel = ~std::uint64_t{0};

using ObimChunk = std::vector<VertexId>;
using ChunkPtr = std::unique_ptr<ObimChunk>;

/// Lock-protected global bag list, one per priority level, with a
/// monotonically self-repairing minimum-level hint.
class GlobalBags {
 public:
  void push_chunk(std::uint64_t level, ChunkPtr chunk) {
    ensure_level(level);
    {
      std::shared_lock<std::shared_mutex> structure(resize_mutex_);
      Level& slot = *levels_[level];
      SpinGuard guard(slot.lock);
      slot.chunks.push_back(std::move(chunk));
      // Release: count is read lock-free by best_level()'s acquire scan —
      // a reader that sees count > 0 must also see a poppable chunk vector
      // (finalized by the SpinLock release, but the scan takes no lock).
      slot.count.fetch_add(1, std::memory_order_release);
    }
    // Lower the hint if this level is better than the recorded minimum.
    // acq_rel on success pairs with best_level()'s acquire load; acquire on
    // failure so the retry loop re-observes `seen` coherently.
    std::uint64_t seen = min_hint_.load(std::memory_order_relaxed);
    while (level < seen &&
           !min_hint_.compare_exchange_weak(seen, level,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
    }
  }

  /// Smallest level that currently appears non-empty (kInfLevel when none).
  std::uint64_t best_level() {
    std::shared_lock<std::shared_mutex> structure(resize_mutex_);
    // Acquire pair of push_chunk's releases: the hint and per-level counts
    // are scanned lock-free; see the count comment above.
    const std::uint64_t start = min_hint_.load(std::memory_order_acquire);
    for (std::uint64_t l = start; l < levels_.size(); ++l) {
      if (levels_[l]->count.load(std::memory_order_acquire) > 0) return l;
    }
    return kInfLevel;
  }

  /// Pops one chunk from `level`; empty pointer when it lost the race.
  ChunkPtr pop_chunk(std::uint64_t level) {
    std::shared_lock<std::shared_mutex> structure(resize_mutex_);
    if (level >= levels_.size()) return nullptr;
    Level& slot = *levels_[level];
    SpinGuard guard(slot.lock);
    if (slot.chunks.empty()) return nullptr;
    ChunkPtr chunk = std::move(slot.chunks.back());
    slot.chunks.pop_back();
    // Release: keeps the count's decrement ordered after the pop for the
    // lock-free scan (same pairing as push_chunk).
    slot.count.fetch_sub(1, std::memory_order_release);
    return chunk;
  }

 private:
  struct Level {
    SpinLock lock;
    std::vector<ChunkPtr> chunks WASP_GUARDED_BY(lock);
    verify::atomic<std::int64_t> count{0};  // lock-free scan shadow
  };

  void ensure_level(std::uint64_t level) {
    {
      std::shared_lock<std::shared_mutex> structure(resize_mutex_);
      if (level < levels_.size()) return;
    }
    std::unique_lock<std::shared_mutex> structure(resize_mutex_);
    std::size_t cap = levels_.empty() ? 64 : levels_.size();
    while (cap <= level) cap *= 2;
    while (levels_.size() < cap) levels_.push_back(std::make_unique<Level>());
  }

  std::shared_mutex resize_mutex_;
  std::vector<std::unique_ptr<Level>> levels_;
  verify::atomic<std::uint64_t> min_hint_{0};
};

/// Thread-local per-level fill chunks with a min-level hint.
struct LocalBags {
  std::vector<ChunkPtr> fill;   // level -> partially filled chunk (or null)
  std::uint64_t min_hint = kInfLevel;

  ObimChunk* at(std::uint64_t level) {
    if (level >= fill.size()) {
      std::size_t cap = fill.empty() ? 64 : fill.size();
      while (cap <= level) cap *= 2;
      fill.resize(cap);
    }
    if (!fill[level]) fill[level] = std::make_unique<ObimChunk>();
    return fill[level].get();
  }

  /// Smallest level with pending local vertices.
  std::uint64_t best_level() {
    for (std::uint64_t l = min_hint; l < fill.size(); ++l) {
      if (fill[l] && !fill[l]->empty()) {
        min_hint = l;
        return l;
      }
    }
    min_hint = kInfLevel;
    return kInfLevel;
  }
};

}  // namespace

SsspResult obim_sssp(const Graph& g, VertexId source, Weight delta,
                     std::uint32_t chunk_size, RunContext& ctx) {
  AtomicDistances& dist = ctx.distances();
  dist.store(source, 0);

  GlobalBags global;
  // Vertices in the system (local bags + global bags + being processed).
  verify::atomic<std::int64_t> pending{0};

  {
    auto seed_chunk = std::make_unique<ObimChunk>();
    seed_chunk->push_back(source);
    // Relaxed: pre-run seeding; the team launch publishes it.
    pending.store(1, std::memory_order_relaxed);
    global.push_chunk(0, std::move(seed_chunk));
  }

  Timer timer;
  ctx.team.run([&](int tid) {
    obs::MetricsShard& my = ctx.metrics.shard(tid);
    LocalBags local;
    std::uint64_t curr = kInfLevel;
    std::uint64_t progress = 0;

    const auto push_update = [&](VertexId v, Distance nd) {
      const std::uint64_t level = static_cast<std::uint64_t>(nd) / delta;
      ObimChunk* chunk = local.at(level);
      chunk->push_back(v);
      // acq_rel: raising pending before the vertex becomes poppable pairs
      // with the scan's acquire — a scanner seeing pending == 0 cannot have
      // missed an in-flight vertex.
      pending.fetch_add(1, std::memory_order_acq_rel);
      local.min_hint = std::min(local.min_hint, level);
      if (chunk->size() >= chunk_size) {
        // Excess vertices go into the global bags (paper §2).
        auto full = std::make_unique<ObimChunk>();
        full.swap(local.fill[level]);
        global.push_chunk(level, std::move(full));
      }
    };

    const auto process = [&](VertexId u, std::uint64_t level) {
      const Distance du = dist.load(u);
      if (static_cast<std::uint64_t>(du) <
          level * static_cast<std::uint64_t>(delta)) {
        my.inc(CId::kStaleSkips);
      }
      if (static_cast<std::uint64_t>(du) >=
          level * static_cast<std::uint64_t>(delta)) {
        my.inc(CId::kVerticesProcessed);
        ++progress;
        if ((progress & 0xFFFu) == 0) {
          if (ctx.observer != nullptr) ctx.observer->on_progress(tid, progress);
          // Deadline poll at the observer cadence; the loop-top poll exits.
          (void)ctx.poll_cancel();
        }
        for (const WEdge& e : g.out_neighbors(u)) {
          my.inc(CId::kRelaxations);
          const Distance nd = saturating_add(du, e.w);
          if (dist.relax_to(e.dst, nd)) {
            my.inc(CId::kUpdates);
            push_update(e.dst, nd);
          }
        }
      }
      // acq_rel: the drop is ordered after this vertex's pushes, so the
      // termination scan's acquire read cannot see 0 early.
      pending.fetch_sub(1, std::memory_order_acq_rel);
    };

    for (;;) {
      // Cancellation point (async: threads leave independently; abandoned
      // local/global chunks die with the run-local bag structures, and the
      // `pending` count is simply left non-zero — every peer also polls).
      if (ctx.stop_requested()) break;
      // Drain the local bag at the current level first (thread-local work,
      // no synchronization — OBIM's fast path).
      if (curr != kInfLevel && curr < local.fill.size() && local.fill[curr] &&
          !local.fill[curr]->empty()) {
        ObimChunk* chunk = local.fill[curr].get();
        const VertexId u = chunk->back();
        chunk->pop_back();
        process(u, curr);
        continue;
      }
      // Synchronize with the global structure: work on the best level
      // available locally or globally.
      const std::uint64_t best_local = local.best_level();
      const std::uint64_t best_global = global.best_level();
      if (best_local == kInfLevel && best_global == kInfLevel) {
        my.inc(CId::kTerminationScans);
        // Idle scans also check the deadline (see mq_dijkstra).
        (void)ctx.poll_cancel();
        // Acquire: pairs with the acq_rel pending updates above.
        if (pending.load(std::memory_order_acquire) == 0) {
          if (ctx.observer != nullptr) ctx.observer->on_termination(tid);
          break;
        }
        std::this_thread::yield();
        continue;
      }
      if (best_global < best_local) {
        if (ChunkPtr stolen = global.pop_chunk(best_global)) {
          curr = best_global;
          while (!stolen->empty()) {
            const VertexId u = stolen->back();
            stolen->pop_back();
            process(u, curr);
          }
          continue;
        }
        continue;  // lost the race; retry selection
      }
      curr = best_local;
    }
  });

  SsspResult result;
  finalize_result(ctx, timer.seconds(), result);
  result.dist = dist.snapshot();
  return result;
}

}  // namespace wasp
