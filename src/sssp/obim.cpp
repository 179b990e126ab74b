#include "sssp/obim.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <vector>

#include "concurrent/spinlock.hpp"
#include "sssp/async_loop.hpp"

namespace wasp {

namespace {

using CId = obs::CounterId;

constexpr std::uint64_t kInfLevel = ~std::uint64_t{0};

using ObimChunk = std::vector<VertexId>;
using ChunkPtr = std::unique_ptr<ObimChunk>;

/// Lock-protected global bag list, one per priority level. Levels live in
/// segments of doubling size (segment s holds 64 * 2^s levels), allocated on
/// first use and published with a CAS, so the list grows without a lock a
/// worker could block on while a peer holds it.
class GlobalBags {
 public:
  GlobalBags() = default;
  GlobalBags(const GlobalBags&) = delete;
  GlobalBags& operator=(const GlobalBags&) = delete;
  ~GlobalBags() {
    // Relaxed: the team has joined; no worker touches the segments.
    for (auto& s : segments_) delete[] s.load(std::memory_order_relaxed);
  }

  void push_chunk(std::uint64_t level, ChunkPtr chunk) {
    Level& slot = at(level);
    SpinGuard guard(slot.lock);
    slot.chunks.push_back(std::move(chunk));
    // Release: count is read lock-free by best_level()'s acquire scan —
    // a reader that sees count > 0 must also see a poppable chunk vector
    // (finalized by the SpinLock release, but the scan takes no lock).
    slot.count.fetch_add(1, std::memory_order_release);
  }

  /// Smallest level that currently appears non-empty (kInfLevel when none).
  std::uint64_t best_level() const {
    for (std::size_t s = 0; s < kSegments; ++s) {
      // Acquire: pairs with at()'s publishing CAS (the levels are built).
      const Level* seg = segments_[s].load(std::memory_order_acquire);
      if (seg == nullptr) continue;
      for (std::uint64_t i = 0; i < (kFirstSegment << s); ++i) {
        // Acquire pair of push_chunk's release; see the count comment there.
        if (seg[i].count.load(std::memory_order_acquire) > 0)
          return kFirstSegment * ((std::uint64_t{1} << s) - 1) + i;
      }
    }
    return kInfLevel;
  }

  /// Pops one chunk from `level`; empty pointer when it lost the race.
  ChunkPtr pop_chunk(std::uint64_t level) {
    Level& slot = at(level);
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

  static constexpr std::uint64_t kFirstSegment = 64;
  /// Segments 0..26 hold 64 * (2^27 - 1) levels, more than any
  /// Distance / Δ.
  static constexpr std::size_t kSegments = 27;

  Level& at(std::uint64_t level) {
    const std::uint64_t q = level / kFirstSegment + 1;
    const auto s = static_cast<std::size_t>(std::bit_width(q) - 1);
    // Acquire: pairs with the publishing CAS below.
    Level* seg = segments_[s].load(std::memory_order_acquire);
    if (seg == nullptr) {
      auto fresh = std::make_unique<Level[]>(kFirstSegment << s);
      // acq_rel on success publishes the built levels (best_level's and
      // at()'s acquire loads); acquire on failure reads the winner's.
      if (segments_[s].compare_exchange_strong(seg, fresh.get(),
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire))
        seg = fresh.release();
    }
    return seg[level - kFirstSegment * ((std::uint64_t{1} << s) - 1)];
  }

  std::array<verify::atomic<Level*>, kSegments> segments_{};
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
  AtomicDistances& dist = *ctx.dist;
  dist.store(source, 0);

  GlobalBags global;
  QuiescenceDetector detector(ctx.team.size());
  {
    auto seed_chunk = std::make_unique<ObimChunk>();
    seed_chunk->push_back(source);
    global.push_chunk(0, std::move(seed_chunk));
  }

  return run_async(ctx, [&](AsyncWorker& me) {
    const int tid = me.tid;
    LocalBags local;
    std::uint64_t curr = kInfLevel;

    const auto push_update = [&](VertexId v, Distance nd) {
      const std::uint64_t level = static_cast<std::uint64_t>(nd) / delta;
      ObimChunk* chunk = local.at(level);
      detector.pushed(tid);
      chunk->push_back(v);
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
        me.shard.inc(CId::kStaleSkips);
      } else {
        me.processed();
        for (const WEdge& e : g.out_neighbors(u)) {
          me.shard.inc(CId::kRelaxations);
          const Distance nd = saturating_add(du, e.w);
          if (dist.relax_to(e.dst, nd)) {
            me.shard.inc(CId::kUpdates);
            push_update(e.dst, nd);
          }
        }
      }
      detector.done(tid);
    };

    while (!ctx.stop_requested()) {
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
        if (me.idle(detector)) break;
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
        }
        continue;  // a lost race retries the selection
      }
      curr = best_local;
    }
  });
}

}  // namespace wasp
