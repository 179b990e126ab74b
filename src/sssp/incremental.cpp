#include "sssp/incremental.hpp"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>

#include "sssp/wasp.hpp"
#include "support/errors.hpp"
#include "support/thread_safety.hpp"
#include "support/timer.hpp"

namespace wasp {

namespace {

using CId = obs::CounterId;

}  // namespace

void Solver::Repair::publish(std::unique_ptr<AnswerBuffer> buffer,
                             bool changed_all) {
  // Untagged until published: if the control block cannot be allocated,
  // the deleter returns the buffer to the pool matching no generation.
  buffer->generation = BufferPool::kNoGeneration;
  AnswerBuffer* raw = buffer.release();
  std::shared_ptr<const std::vector<Distance>> shared(
      &raw->dist, BufferPool::Return{pool_, raw});
  raw->generation = ++generation_;
  changed_all_ = changed_all;
  answer_ = Answer(std::move(shared));
}

std::uint64_t Solver::Repair::scratch_bytes() const {
  std::uint64_t bytes = in_cone_.capacity() + seeded_.capacity() +
                        heads_.capacity() * sizeof(ConeHead) +
                        lowered_.bytes();
  for (const std::vector<VertexId>* list :
       {&changed_, &priced_from_, &cone_, &stack_, &seeds_})
    bytes += list->capacity() * sizeof(VertexId);
  return bytes;
}

std::unique_ptr<Solver::AnswerBuffer> Solver::Repair::working_copy(
    const Answer& from, obs::MetricsShard& shard) {
  std::unique_ptr<AnswerBuffer> work = pool_->take(generation_ - 1);
  if (from.data() == answer_.data() && !changed_all_ && work != nullptr &&
      work->generation + 1 == generation_) {
    // One publish behind `from`, which differs from it only at the
    // previous change set: patch those entries forward.
    Distance* const d = work->dist.data();
    for (const VertexId v : changed_) d[v] = from[v];
    shard.inc(CId::kRepairRecycled);
    shard.inc(CId::kRepairPublishedEntries, changed_.size());
    return work;
  }
  if (work == nullptr) work = std::make_unique<AnswerBuffer>();
  work->dist.assign(from.begin(), from.end());
  // The repair's one O(n) initialization of its buffer.
  shard.inc(CId::kEpochSweeps);
  shard.inc(CId::kRepairArrayCopies);
  shard.inc(CId::kRepairPublishedEntries, from.size());
  return work;
}

Answer Solver::Repair::full_solve(Solver& solver, const Graph& g,
                                  VertexId source) {
  SsspResult result = solver.dispatch(g, source);
  auto buffer = std::make_unique<AnswerBuffer>();
  buffer->dist = std::move(result.dist);  // the buffer the run relaxed in
  publish(std::move(buffer), /*changed_all=*/true);
  // The cold door's report, plus the one counter that says which path ran.
  obs::MetricsSnapshot& report = solver.last_metrics_;
  report = std::move(result.metrics);
  const auto full = static_cast<std::size_t>(CId::kRepairFullSolves);
  report.totals[full] = 1;
  report.per_thread[0][full] = 1;
  return answer_;
}

Answer Solver::Repair::repair(Solver& solver, VersionedGraph& vg,
                              const Graph& g, VertexId source,
                              const Answer& from, std::uint64_t from_version,
                              std::span<const ArcEffect> effects) {
  const Timer walk_timer;
  std::uint64_t build_ns = 0;  // an in-arc index build, timed apart
  const SsspOptions& opts = solver.options_;
  opts.validate();
  CancelToken* cancel = opts.cancel;
  const VertexId n = g.num_vertices();
  if (cancel != nullptr && cancel->poll()) throw_cancelled(*cancel);

  obs::MetricsRegistry& registry = solver.metrics_;
  registry.reset();
  obs::MetricsShard& shard = registry.shard(0);

  // 0. The working buffer, equal to `from`. A throw from here on frees it
  // unpublished.
  const bool from_last = from.data() == answer_.data();
  std::unique_ptr<AnswerBuffer> work = working_copy(from, shard);

  // Reset the scratch: a new cone stamp, cleared in full only when it wraps,
  // and the seed flags in O(previous seeds): every set flag is listed in
  // seeds_, because each is set only after its push succeeded, also in a
  // repair that threw mid-walk. Only a change of n re-allocates.
  if (in_cone_.size() != n || ++stamp_ == 0) {
    in_cone_.assign(n, 0);
    stamp_ = 1;
  }
  if (seeded_.size() != n) {
    seeded_.assign(n, 0);
  } else {
    for (const VertexId u : seeds_) seeded_[u] = 0;
  }
  cone_.clear();
  stack_.clear();
  seeds_.clear();
  heads_.clear();
  priced_from_.clear();

  // The walk's hot loop reads these through plain pointers; d is the
  // working buffer (a cone vertex's bound).
  const Distance* const warm_d = from.data();
  Distance* const d = work->dist.data();
  std::uint8_t* const in_cone = in_cone_.data();
  const std::uint8_t stamp = stamp_;
  std::uint8_t* const seeded = seeded_.data();
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

  // 2. Cone walk (invariant (a) of the header: bounds are re-priced tree
  // paths), storing each bound in the buffer; the engine's team launch
  // publishes those plain stores. On an undirected graph the out-arcs read
  // here are also the cone's in-arcs, so the walk collects the boundary
  // seeds as it goes: every finite neighbour it does not admit (the source
  // included) is a candidate. It also compares both directions of each arc
  // to a priced vertex and seeds the end whose bound improves the other. A
  // neighbour outside the cone is compared at its warm distance; if it
  // enters later, its own scan compares again.
  const bool fused = vg.is_undirected();
  const std::size_t first_candidate = seeds_.size();
  auto admit = [&](VertexId v, Distance b) {
    cone_.push_back(v);
    stack_.push_back(v);
    in_cone[v] = stamp;
    d[v] = b;
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
    if (!admissible || in_cone[head] == stamp) continue;
    if (in_cone[tail] != stamp) priced_from_.push_back(tail);
    admit(head, saturating_add(d[tail], w));

    while (!stack_.empty()) {
      // Cancellation point for the repair loop: a big cone is the only
      // sequential phase here that can run long.
      if ((++walked & 0xFFFu) == 0 && cancel != nullptr && cancel->poll())
        throw_cancelled(*cancel);
      const VertexId x = stack_.back();
      stack_.pop_back();
      const Distance wx = warm_d[x];
      const Distance bx = d[x];
      for (const WEdge* e = edges + offsets[x], *end = edges + offsets[x + 1];
           e != end; ++e) {
        const VertexId y = e->dst;
        if (in_cone[y] == stamp) {
          if (fused) {
            const Distance by = d[y];
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
  for (const VertexId t : priced_from_) reset = reset || in_cone[t] == stamp;

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
      if (in_cone[u] == stamp && (reset || seeded[u] == kCandidate)) {
        seeded[u] = 0;
      } else {
        seeds_[kept++] = u;
      }
    }
    seeds_.resize(kept);
  } else if (!cone_.empty()) {
    // Directed: O(sum of cone in- and out-degrees) via the graph's in-arc
    // index and the cone's own rows. A build of the index is its own layer.
    const std::uint64_t builds = vg.in_arc_builds();
    const Timer build_timer;
    const Graph& rin = vg.in_arcs();
    if (vg.in_arc_builds() != builds) {
      build_ns = build_timer.nanoseconds();
      shard.inc(CId::kRepairInArcBuilds);
      shard.inc(CId::kRepairInArcBuildNs, build_ns);
    }
    for (const VertexId c : cone_) {
      if ((++walked & 0xFFFu) == 0 && cancel != nullptr && cancel->poll())
        throw_cancelled(*cancel);
      for (const WEdge& e : rin.out_neighbors(c)) {
        const VertexId u = e.dst;  // in-neighbour of c
        if (in_cone[u] == stamp || warm_d[u] == kInfDist) continue;
        seed(u);
      }
      if (reset) continue;
      const Distance bc = d[c];
      for (const WEdge& e : g.out_neighbors(c)) {
        if (saturating_add(bc, e.w) < d[e.dst]) {
          seed(c);
          break;
        }
      }
    }
  }
  if (reset) {
    for (const VertexId c : cone_) d[c] = kInfDist;
  }

  shard.inc(CId::kRepairBatches, vg.version() - from_version);
  shard.inc(CId::kRepairConeVertices, cone_.size());
  shard.inc(CId::kRepairSeedVertices, seeds_.size());
  if (reset) shard.inc(CId::kRepairConeResets);

  // 4. Repair from the seeds with the normal engine, in the buffer:
  // untouched vertices keep their warm entries. The run starts on the
  // calling thread; at kInlineRepairWork processed vertices it pauses, and
  // the team resumes from its frontier into the same log (wasp_sssp_seeded).
  const int team_size = solver.team_.size();
  AtomicDistances dist(work->dist);
  auto run_engine = [&](ThreadTeam& team, std::span<const VertexId> starts,
                        std::uint64_t budget) {
    RunContext ctx{team, registry, opts.trace, opts.observer};
    ctx.dist = &dist;
    ctx.cancel = cancel;
    const SsspResult result = wasp_sssp_seeded(g, starts, opts.delta,
                                               opts.wasp, ctx, lowered_, budget);
    if (cancel != nullptr && cancel->cancel_requested())
      throw_cancelled(*cancel);
    return result.metrics.seconds;
  };
  shard.inc(CId::kRepairWalkNs, walk_timer.nanoseconds() - build_ns);
  lowered_.reset(team_size);
  double engine_seconds = run_engine(
      inline_team_, seeds_, team_size > 1 ? kInlineRepairWork : kNoWorkBudget);
  if (lowered_.stopped()) {
    shard.inc(CId::kRepairEscalations);
    engine_seconds +=
        run_engine(solver.team_, lowered_.frontier(), kNoWorkBudget);
  }

  // 5. Publish the buffer as it stands, keeping this repair's change set
  // for the next one's patch unless it passes the limit. Against a `from`
  // other than the last answer published, the change set is unknown.
  const Timer publish_timer;
  const bool wide = cone_.size() + lowered_.size() > n / kPatchShare;
  changed_.clear();
  if (!wide) {
    changed_.insert(changed_.end(), cone_.begin(), cone_.end());
    for (int t = 0; t < team_size; ++t) {
      const std::span<const VertexId> list = lowered_.list(t);
      changed_.insert(changed_.end(), list.begin(), list.end());
    }
  }
  publish(std::move(work), /*changed_all=*/wide || !from_last);
  shard.inc(CId::kRepairPublishNs, publish_timer.nanoseconds());
  registry.set_elapsed_seconds(engine_seconds);
  solver.last_metrics_ = registry.snapshot();
  return answer_;
}

}  // namespace wasp
