#include "sssp/incremental.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>

#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "sssp/wasp.hpp"
#include "support/errors.hpp"
#include "support/thread_safety.hpp"
#include "support/timer.hpp"

namespace wasp {

namespace {

using CId = obs::CounterId;

/// The tag of a buffer whose contents match no generation: never one
/// behind any answer a repair patches.
constexpr std::uint64_t kUntagged = std::numeric_limits<std::uint64_t>::max();

[[noreturn]] void throw_cancelled(const CancelToken& token) {
  std::ostringstream os;
  os << "IncrementalSolver::solve: solve cancelled ("
     << to_string(token.reason()) << ")";
  throw SolveCancelledError(os.str(), token.reason());
}

}  // namespace

/// Buffers whose last Answer was dropped, waiting for a repair to rewrite
/// them. Every published answer's deleter holds the pool weakly and hands
/// its buffer back from whichever thread dropped it; the mutex orders that
/// thread's last reads before the repair's writes. Two buffers are enough
/// for a reader that drops each answer within two publishes: the one a
/// repair rewrites and the one that reader still holds.
class IncrementalSolver::BufferPool {
 public:
  /// An answer's deleter: returns its buffer to the pool, or frees it when
  /// the solver, and with it the pool, is gone.
  struct Return {
    std::weak_ptr<BufferPool> pool;
    AnswerBuffer* buffer;

    void operator()(const std::vector<Distance>* /*dist*/) const noexcept {
      std::unique_ptr<AnswerBuffer> owned(buffer);
      if (const std::shared_ptr<BufferPool> p = pool.lock())
        p->put(std::move(owned));
    }
  };

  /// Keeps `buffer` in a free slot, or in place of an older one; whichever
  /// is left over is freed after the lock is released.
  void put(std::unique_ptr<AnswerBuffer> buffer) noexcept {
    MutexLock lock(mu_);
    std::unique_ptr<AnswerBuffer>* oldest = &free_[0];
    for (std::unique_ptr<AnswerBuffer>& slot : free_) {
      if (slot == nullptr) {
        oldest = &slot;
        break;
      }
      if (slot->generation < (*oldest)->generation) oldest = &slot;
    }
    if (*oldest == nullptr || (*oldest)->generation < buffer->generation)
      oldest->swap(buffer);
  }

  /// A free buffer, the one tagged `generation` if there is one; null when
  /// the list is empty.
  std::unique_ptr<AnswerBuffer> take(std::uint64_t generation) {
    MutexLock lock(mu_);
    std::unique_ptr<AnswerBuffer>* pick = nullptr;
    for (std::unique_ptr<AnswerBuffer>& slot : free_) {
      if (slot != nullptr &&
          (pick == nullptr || slot->generation == generation))
        pick = &slot;
    }
    return pick != nullptr ? std::move(*pick) : nullptr;
  }

 private:
  Mutex mu_;
  std::array<std::unique_ptr<AnswerBuffer>, 2> free_ WASP_GUARDED_BY(mu_);
};

IncrementalSolver::IncrementalSolver(SsspOptions options)
    : solver_(std::move(options)), pool_(std::make_shared<BufferPool>()) {}

void IncrementalSolver::publish(std::unique_ptr<AnswerBuffer> buffer,
                                bool changed_all) {
  // Untagged until published: if the control block cannot be allocated,
  // the deleter returns the buffer to the pool, where it must match no
  // generation.
  buffer->generation = kUntagged;
  AnswerBuffer* raw = buffer.release();
  std::shared_ptr<const std::vector<Distance>> shared(
      &raw->dist, BufferPool::Return{pool_, raw});
  raw->generation = ++generation_;
  changed_all_ = changed_all;
  answer_ = Answer(std::move(shared));
}

bool IncrementalSolver::warm_for(const VersionedGraph& vg, VertexId source) {
  if (bound_graph_ != &vg || bound_source_ != source) return false;
  // Same address is not same graph: a different VersionedGraph rebuilt at a
  // recycled heap address can line up on version and size. The
  // process-unique uid (never reused) is the identity check.
  if (bound_uid_ != vg.uid()) return false;
  // The warm contract needs the pool's array to still be *our* array: same
  // size, and no acquire since our last answer (any other query through the
  // solver acquires, which fills the array and moves the generation).
  DistancePool& pool = solver_.distances();
  AtomicDistances* d = pool.current();
  return d != nullptr && d->size() == vg.num_vertices() &&
         pool.generation() == bound_generation_ &&
         answer_.size() == vg.num_vertices();
}

const Graph& IncrementalSolver::transpose_of(const Graph& g) {
  if (!transpose_valid_) {
    transpose_ = GraphBuilder().transpose_of(g).build();
    transpose_valid_ = true;
  }
  return transpose_;
}

const Answer& IncrementalSolver::solve(VersionedGraph& vg, VertexId source) {
  // uid, not address: the transpose cache below must also survive (only)
  // the graph object it was built from.
  const bool same_binding = bound_graph_ == &vg && bound_uid_ == vg.uid() &&
                            bound_source_ == source;
  const bool warm = warm_for(vg, source);

  // graph() folds any staged structural overlay back into the flat CSR the
  // engine consumes; the compaction count tells us the in-arc structure
  // changed (weight-only batches never compact).
  const Graph& g = vg.graph();
  if (!same_binding || vg.compactions() != seen_compactions_)
    transpose_valid_ = false;

  bool repaired = false;
  if (warm && bound_version_ == vg.version()) {
    // Nothing changed since our last answer: it is still the answer.
    last_ = RepairStats{};
    last_.full_solve = false;
    repaired = true;
  } else if (warm) {
    const VersionedGraph::JournalView jv = vg.journal_since(bound_version_);
    if (jv.ok) {
      repair(vg, g, source, jv.effects);
      repaired = true;
    }
    // !jv.ok: the journal was trimmed past our version — full solve below.
  }
  if (!repaired) full_solve(g, source);

  bound_graph_ = &vg;
  bound_uid_ = vg.uid();
  bound_source_ = source;
  bound_version_ = vg.version();
  seen_compactions_ = vg.compactions();
  seen_compacted_arcs_ = vg.compacted_arcs();
  return answer_;
}

void IncrementalSolver::full_solve(const Graph& g, VertexId source) {
  SsspResult result = solver_.solve(g, source);
  auto buffer = std::make_unique<AnswerBuffer>();
  buffer->dist = std::move(result.dist);
  publish(std::move(buffer), /*changed_all=*/true);
  last_ = RepairStats{};
  last_.full_solve = true;
  last_.workers = solver_.team().size();
  last_.seconds = result.metrics.seconds;

  // Bind the warm state only when the solve actually went through the
  // pooled atomic array (the sequential Dijkstra reference and a Wasp run
  // with more than one fragment keep their own storage — the pool's content
  // would be a stale lie).
  AtomicDistances* d = solver_.distances().current();
  if (solver_.options().uses_distance_pool(solver_.team().size()) &&
      d != nullptr && d->size() == g.num_vertices()) {
    bound_generation_ = solver_.distances().generation();
  } else {
    bound_graph_ = nullptr;  // unbindable: every solve stays a full solve
  }
}

void IncrementalSolver::repair(VersionedGraph& vg, const Graph& g,
                               VertexId source,
                               std::span<const ArcEffect> effects) {
  const Timer walk_timer;
  SsspOptions& opts = solver_.options();
  opts.validate();
  CancelToken* cancel = opts.cancel;
  AtomicDistances& dist = *solver_.distances().current();
  // The previous answer: the warm distances the cone walk reads.
  const std::span<const Distance> warm(answer_.data(), answer_.size());

  // The walk stores bounds into the atomic array, so any exit before the
  // new answer is published (cancel, engine failure, an allocation failure
  // mid-walk) must unbind the warm state, or the next solve would repair
  // on top of garbage. That solve then solves in full, and its acquire
  // refills the array.
  struct DiscardUnlessPublished {
    IncrementalSolver& self;
    bool published = false;
    ~DiscardUnlessPublished() {
      if (!published) self.bound_graph_ = nullptr;
    }
  } guard{*this};
  if (cancel != nullptr && cancel->poll()) throw_cancelled(*cancel);

  obs::MetricsRegistry& registry = solver_.metrics();
  registry.reset();
  obs::MetricsShard& shard = registry.shard(0);
  shard.inc(CId::kGraphCompactions, vg.compactions() - seen_compactions_);
  shard.inc(CId::kGraphCompactedArcs,
            vg.compacted_arcs() - seen_compacted_arcs_);

  // Reset the scratch flags in O(previous cone + seeds), not O(n): every set
  // flag is listed in cone_ or seeds_, because each flag is set only after
  // its push succeeded — also in a repair that threw mid-walk. bound_ is
  // read only where in_cone_ is set, so it is never reset. Only a change of
  // n (a different graph) re-allocates.
  const VertexId n = g.num_vertices();
  if (in_cone_.size() != n || seeded_.size() != n) {
    in_cone_.assign(n, 0);
    seeded_.assign(n, 0);
    bound_.assign(n, kInfDist);
  } else {
    for (const VertexId c : cone_) in_cone_[c] = 0;
    for (const VertexId u : seeds_) seeded_[u] = 0;
  }
  cone_.clear();
  stack_.clear();
  seeds_.clear();
  heads_.clear();
  priced_from_.clear();

  // The walk's hot loop reads these through plain pointers.
  const Distance* const warm_d = warm.data();
  std::uint8_t* const in_cone = in_cone_.data();
  std::uint8_t* const seeded = seeded_.data();
  Distance* const bound = bound_.data();
  const EdgeIndex* const offsets = g.offsets_data();
  const WEdge* const edges = g.edge_data();

  // seeded marks a vertex in seeds_: a kSeed stays, a kCandidate (a
  // boundary candidate of the undirected walk) is dropped if it enters the
  // cone after the walk saw it.
  constexpr std::uint8_t kCandidate = 1;
  constexpr std::uint8_t kSeed = 2;
  auto seed = [&](VertexId u) {
    if (seeded[u] == 0) seeds_.push_back(u);
    seeded[u] = kSeed;
  };

  // 1. Classify effects. Decrease sources seed relaxation; admissible
  // increase heads start the cone walk. The <= (not ==) parent predicate is
  // deliberately conservative: across multi-batch catch-up an effect's
  // old_w need not be the weight the warm distances settled against, and
  // a cone too large is the safe direction. Every increase is kept, not
  // just the admissible ones: together they bound the arc's current weight.
  for (const ArcEffect& e : effects) {
    if (e.is_decrease() && warm_d[e.src] != kInfDist) seed(e.src);
    if (e.is_increase() && e.dst != source && warm_d[e.src] != kInfDist &&
        warm_d[e.dst] != kInfDist) {
      heads_.push_back(ConeHead{
          e.dst, e.src, e.exists ? e.new_w : kDeadWeight,
          saturating_add(warm_d[e.src], e.old_w) <= warm_d[e.dst]});
    }
  }
  // Nearest heads first: an admissible arc never leads to a smaller warm
  // distance, so a head's tail that lies in another head's cone is priced
  // before the head reads it, unless zero-weight arcs tie them. The
  // increases of one arc end up adjacent.
  std::sort(heads_.begin(), heads_.end(),
            [&](const ConeHead& a, const ConeHead& b) {
              if (warm_d[a.head] != warm_d[b.head])
                return warm_d[a.head] < warm_d[b.head];
              return a.head != b.head ? a.head < b.head : a.tail < b.tail;
            });

  // The engine's warm start needs two invariants (sssp/incremental.hpp):
  //  (a) every value in the array is at least the exact distance;
  //  (b) the tail of every arc that can still improve its head is seeded.
  // The walk keeps (a) by storing re-priced tree paths (or, on a reset,
  // infinity); the walk's seeds and step 3 keep (b).
  //
  // 2. Cone walk: everything reachable through admissible arcs (under the
  // warm distances) may have depended on a changed arc. Admission reads
  // only warm distances and current weights, so the walk admits the same
  // set in any order; it goes depth first. Each vertex gets its bound when
  // admitted, in bound_ for the walk and in the array for the engine, so
  // the array reads as the vertex's bound inside the cone and its warm
  // distance outside it. The stores run on the calling thread, and the
  // engine's team launch publishes them. On an undirected graph the
  // out-arcs read here are also the cone's in-arcs, so the walk collects
  // the boundary seeds as it goes: every finite neighbour it does not admit
  // (the source included) is a candidate. It also compares both directions
  // of each arc to a priced vertex and seeds the end whose bound improves
  // the other. A neighbour outside the cone is compared at its warm
  // distance; if it enters later, its own scan compares again.
  const bool fused = vg.is_undirected();
  const std::size_t first_candidate = seeds_.size();
  auto admit = [&](VertexId v, Distance b) {
    cone_.push_back(v);
    stack_.push_back(v);
    in_cone[v] = 1;
    bound[v] = b;
    dist.store(v, b);
  };
  std::uint64_t walked = 0;
  for (std::size_t i = 0; i < heads_.size();) {
    // The increases of one (tail, head) arc. After the warm answer only an
    // increase raised the arc, so its current weight is at most the
    // largest weight they set (infinity once closed). Reading the journal,
    // not the tail's CSR row, keeps a hub tail from costing its degree.
    const VertexId head = heads_[i].head;
    const VertexId tail = heads_[i].tail;
    Weight w = 0;
    bool admissible = false;
    for (; i < heads_.size() && heads_[i].head == head &&
           heads_[i].tail == tail;
         ++i) {
      w = std::max(w, heads_[i].new_w);
      admissible = admissible || heads_[i].admissible;
    }
    if (!admissible || in_cone[head]) continue;
    if (!in_cone[tail]) priced_from_.push_back(tail);
    admit(head, saturating_add(in_cone[tail] ? bound[tail] : warm_d[tail], w));

    while (!stack_.empty()) {
      // Cancellation point for the repair loop: a big cone is the only
      // sequential phase here that can run long.
      if ((++walked & 0xFFFu) == 0 && cancel != nullptr && cancel->poll())
        throw_cancelled(*cancel);
      const VertexId x = stack_.back();
      stack_.pop_back();
      const Distance wx = warm_d[x];
      const Distance bx = bound[x];
      for (const WEdge* e = edges + offsets[x], *end = edges + offsets[x + 1];
           e != end; ++e) {
        const VertexId y = e->dst;
        if (in_cone[y]) {
          if (fused) {
            const Distance by = bound[y];
            if (saturating_add(bx, e->w) < by) seed(x);
            if (saturating_add(by, e->w) < bx) seed(y);
          }
          continue;
        }
        const Distance wy = warm_d[y];
        if (wy != kInfDist && y != source && saturating_add(wx, e->w) <= wy) {
          admit(y, saturating_add(bx, e->w));
        } else if (fused) {
          if (wy != kInfDist && seeded[y] == 0) {
            seeds_.push_back(y);
            seeded[y] = kCandidate;
          }
          if (saturating_add(bx, e->w) < wy) seed(x);
        }
      }
    }
  }

  // A head priced from a tail outside the cone read the tail's warm
  // distance; if a later walk admitted the tail, that value may be below
  // the tail's new distance. Then no bound is trusted: the cone goes to
  // infinity and re-derives from the boundary and the decrease sources.
  bool reset = false;
  for (const VertexId t : priced_from_) reset = reset || in_cone[t] != 0;

  // 3. Seeds besides the decrease sources: intact in-neighbours of the cone
  // re-derive its distances, and cone vertices whose bound improves an
  // out-neighbour carry that improvement.
  if (fused) {
    // Drop the candidates that entered the cone after the walk saw them,
    // and on a reset every cone seed but a decrease source. Clearing their
    // flags keeps every set flag listed in seeds_.
    std::size_t kept = first_candidate;
    for (std::size_t i = first_candidate; i < seeds_.size(); ++i) {
      const VertexId u = seeds_[i];
      if (in_cone[u] && (reset || seeded[u] == kCandidate)) {
        seeded[u] = 0;
      } else {
        seeds_[kept++] = u;
      }
    }
    seeds_.resize(kept);
  } else {
    // Directed: O(sum of cone in- and out-degrees) via the transposed
    // in-arc view and the cone's own rows.
    const Graph& rin = transpose_of(g);
    for (const VertexId c : cone_) {
      if ((++walked & 0xFFFu) == 0 && cancel != nullptr && cancel->poll())
        throw_cancelled(*cancel);
      for (const WEdge& e : rin.out_neighbors(c)) {
        const VertexId u = e.dst;  // in-neighbour of c
        if (in_cone[u] || warm_d[u] == kInfDist) continue;
        seed(u);
      }
      if (reset) continue;
      const Distance bc = bound[c];
      for (const WEdge& e : g.out_neighbors(c)) {
        const Distance d = in_cone[e.dst] ? bound[e.dst] : warm_d[e.dst];
        if (saturating_add(bc, e.w) < d) {
          seed(c);
          break;
        }
      }
    }
  }
  if (reset) {
    for (const VertexId c : cone_) dist.store(c, kInfDist);
  }

  const std::uint64_t batches = vg.version() - bound_version_;
  shard.inc(CId::kRepairBatches, batches);
  shard.inc(CId::kRepairConeVertices, cone_.size());
  shard.inc(CId::kRepairSeedVertices, seeds_.size());

  // 4. Repair from the seeds with the normal engine. No acquire and no
  // fill: untouched vertices keep their warm entries. The run starts on the
  // calling thread; at kInlineRepairWork processed vertices it pauses, and
  // the team resumes from its frontier into the same log (wasp_sssp_seeded).
  const int team_size = solver_.team().size();
  auto run_engine = [&](ThreadTeam& team, std::span<const VertexId> from,
                        std::uint64_t budget) {
    RunContext ctx{team, registry,
                   solver_.trace() != nullptr ? solver_.trace() : opts.trace,
                   opts.observer};
    ctx.dist = &dist;
    ctx.cancel = cancel;
    const SsspResult result =
        wasp_sssp_seeded(g, from, opts.delta, opts.wasp, ctx, lowered_, budget);
    if (cancel != nullptr && cancel->cancel_requested())
      throw_cancelled(*cancel);
    return result.metrics.seconds;
  };
  const double walk_seconds = walk_timer.seconds();
  lowered_.reset(team_size);
  double engine_seconds = run_engine(
      inline_team_, seeds_, team_size > 1 ? kInlineRepairWork : kNoWorkBudget);
  if (lowered_.stopped()) {
    engine_seconds +=
        run_engine(solver_.team(), lowered_.frontier(), kNoWorkBudget);
  }

  // 5. Publish into a free buffer; every earlier answer stays as its
  // holders see it. Outside the cone and the log the array still holds the
  // previous answer, and a buffer one publish behind differs from that
  // only at the previous change set, so a patch re-reads exactly the
  // entries that may differ.
  const Timer publish_timer;
  const std::size_t current = cone_.size() + lowered_.size();
  const std::size_t limit = n / kPatchShare;
  std::unique_ptr<AnswerBuffer> next = pool_->take(generation_ - 1);
  const bool recycled = next != nullptr && !changed_all_ &&
                        next->generation + 1 == generation_ &&
                        changed_.size() + current <= limit;
  const bool wide = current > limit;
  if (next == nullptr) next = std::make_unique<AnswerBuffer>();
  std::vector<Distance>& out = next->dist;
  std::uint64_t written = 0;
  auto reread = [&](std::span<const VertexId> entries) {
    for (const VertexId v : entries) out[v] = dist.load(v);
    written += entries.size();
  };
  if (recycled) {
    reread(changed_);
  } else if (!wide) {
    out.assign(answer_.begin(), answer_.end());
    written = n;
  }
  // This repair's change set, re-read now and kept for the next one. A set
  // past the limit is not kept: the next repair could not patch with it.
  changed_.clear();
  if (wide) {
    dist.snapshot_into(out);
    written = n;
  } else {
    changed_.insert(changed_.end(), cone_.begin(), cone_.end());
    for (int t = 0; t < team_size; ++t) {
      const std::span<const VertexId> list = lowered_.list(t);
      changed_.insert(changed_.end(), list.begin(), list.end());
    }
    reread(changed_);
  }
  publish(std::move(next), /*changed_all=*/wide);
  guard.published = true;
  if (recycled) shard.inc(CId::kRepairRecycled);

  last_ = RepairStats{};
  last_.full_solve = false;
  last_.batches = batches;
  last_.effects = effects.size();
  last_.cone_vertices = cone_.size();
  last_.seed_vertices = seeds_.size();
  last_.lowered = lowered_.size();
  last_.patched = !wide;
  last_.recycled = recycled;
  last_.published_entries = written;
  last_.cone_reset = reset;
  last_.workers = lowered_.stopped() ? team_size : 1;
  last_.seconds = engine_seconds;
  last_.walk_seconds = walk_seconds;
  last_.publish_seconds = publish_timer.seconds();
}

}  // namespace wasp
