#include "sssp/incremental.hpp"

#include <cstddef>
#include <memory>
#include <sstream>
#include <utility>

#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "sssp/wasp.hpp"
#include "support/errors.hpp"

namespace wasp {

namespace {

using CId = obs::CounterId;

/// A repair patches its previous answer while the cone plus the engine's
/// log stay within n / kPatchShare entries; past that it decodes the whole
/// array once. Patching costs a copy of the previous answer plus one
/// scattered re-read per entry, decoding one pass over the atomic array. On
/// a 4-vCPU Xeon VM (medians of 41, scattered entries, n = 102,400) a
/// decode took 89 us, and patching n/64 entries took 21 us, n/8 44 us, n/4
/// 81 us and n/2 129 us: the two cross near n/4. An eighth keeps a patch at
/// about half a decode, which leaves room for the log's own cost (one
/// append per lowering, repeats included). In perfbench's live_traffic,
/// road ticks (cones of about 1,500 of 102,400 vertices) patch, and
/// chain-forest ticks (cones of about 74,000 of 131,072) decode.
constexpr std::size_t kPatchShare = 8;

[[noreturn]] void throw_cancelled(const CancelToken& token) {
  std::ostringstream os;
  os << "IncrementalSolver::solve: solve cancelled ("
     << to_string(token.reason()) << ")";
  throw SolveCancelledError(os.str(), token.reason());
}

}  // namespace

IncrementalSolver::IncrementalSolver(SsspOptions options)
    : solver_(std::move(options)) {}

bool IncrementalSolver::warm_for(const VersionedGraph& vg, VertexId source) {
  if (bound_graph_ != &vg || bound_source_ != source) return false;
  // Same address is not same graph: a different VersionedGraph rebuilt at a
  // recycled heap address can line up on version and size. The
  // process-unique uid (never reused) is the identity check.
  if (bound_uid_ != vg.uid()) return false;
  // The warm contract needs the pool's array to still be *our* array: same
  // size, and the epoch stamp untouched since our last answer (any other
  // query through the solver bumps it).
  AtomicDistances* d = solver_.distances().current();
  return d != nullptr && d->size() == vg.num_vertices() &&
         d->epoch() == bound_epoch_ && answer_ != nullptr &&
         answer_->size() == vg.num_vertices();
}

const Graph& IncrementalSolver::transpose_of(const Graph& g) {
  if (!transpose_valid_) {
    transpose_ = GraphBuilder().transpose_of(g).build();
    transpose_valid_ = true;
  }
  return transpose_;
}

const std::vector<Distance>& IncrementalSolver::solve(VersionedGraph& vg,
                                                      VertexId source) {
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
  return *answer_;
}

void IncrementalSolver::full_solve(const Graph& g, VertexId source) {
  SsspResult result = solver_.solve(g, source);
  answer_ = std::make_shared<const std::vector<Distance>>(
      std::move(result.dist));
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
    bound_epoch_ = d->epoch();
  } else {
    bound_graph_ = nullptr;  // unbindable: every solve stays a full solve
  }
}

void IncrementalSolver::repair(VersionedGraph& vg, const Graph& g,
                               VertexId source,
                               std::span<const ArcEffect> effects) {
  SsspOptions& opts = solver_.options();
  opts.validate();
  CancelToken* cancel = opts.cancel;
  AtomicDistances& dist = *solver_.distances().current();
  // The previous answer: the warm distances the cone walk reads, and the
  // base the next answer patches.
  const std::vector<Distance>& warm = *answer_;

  // Any exit that leaves the atomic array half-mutated (cancel, engine
  // failure) must poison the warm state, or the next solve would repair on
  // top of garbage.
  auto discard_warm = [&] {
    dist.new_epoch();
    bound_graph_ = nullptr;
  };
  if (cancel != nullptr && cancel->poll()) {
    discard_warm();
    throw_cancelled(*cancel);
  }

  obs::MetricsRegistry& registry = solver_.metrics();
  registry.reset();
  obs::MetricsShard& shard = registry.shard(0);
  shard.inc(CId::kGraphCompactions, vg.compactions() - seen_compactions_);
  shard.inc(CId::kGraphCompactedArcs,
            vg.compacted_arcs() - seen_compacted_arcs_);

  // Reset the scratch flags in O(previous cone + seeds), not O(n): every set
  // flag is listed in cone_ or seeds_, because each flag is set only after
  // its push succeeded — also in a repair that threw mid-walk. Only a change
  // of n (a different graph) re-allocates.
  const VertexId n = g.num_vertices();
  if (in_cone_.size() != n || seeded_.size() != n) {
    in_cone_.assign(n, 0);
    seeded_.assign(n, 0);
  } else {
    for (const VertexId c : cone_) in_cone_[c] = 0;
    for (const VertexId u : seeds_) seeded_[u] = 0;
  }
  cone_.clear();
  seeds_.clear();

  // 1. Classify effects. Decrease sources seed relaxation; admissible
  // increase heads start the invalidation cone. The <= (not ==) parent
  // predicate is deliberately conservative: across multi-batch catch-up an
  // effect's old_w need not be the weight the warm distances settled
  // against, and over-invalidation is the safe direction.
  for (const ArcEffect& e : effects) {
    if (e.is_decrease() && warm[e.src] != kInfDist && !seeded_[e.src]) {
      seeds_.push_back(e.src);
      seeded_[e.src] = 1;
    }
    if (e.is_increase() && e.dst != source && !in_cone_[e.dst] &&
        warm[e.src] != kInfDist && warm[e.dst] != kInfDist &&
        saturating_add(warm[e.src], e.old_w) <= warm[e.dst]) {
      cone_.push_back(e.dst);
      in_cone_[e.dst] = 1;
    }
  }

  // 2. Cone walk: everything reachable through admissible arcs (under the
  // warm distances) may have depended on a changed arc. The atomic array
  // still holds the same values; it is only invalidated after the walk.
  // On an undirected graph the out-arcs read here are also the cone's
  // in-arcs, so the walk collects the boundary seeds as it goes: every
  // finite neighbour it does not admit (the source included) is a
  // candidate, and candidates that enter the cone later are dropped below.
  const bool fused = vg.is_undirected();
  const std::size_t first_candidate = seeds_.size();
  std::uint64_t walked = 0;
  for (std::size_t i = 0; i < cone_.size(); ++i) {
    // Cancellation point for the repair loop: a big cone is the only
    // sequential phase here that can run long.
    if ((++walked & 0xFFFu) == 0 && cancel != nullptr && cancel->poll()) {
      discard_warm();
      throw_cancelled(*cancel);
    }
    const VertexId x = cone_[i];
    const Distance dx = warm[x];
    for (const WEdge& e : g.out_neighbors(x)) {
      if (in_cone_[e.dst]) continue;
      const Distance dy = warm[e.dst];
      if (dy == kInfDist) continue;
      if (e.dst != source && saturating_add(dx, e.w) <= dy) {
        cone_.push_back(e.dst);
        in_cone_[e.dst] = 1;
      } else if (fused && !seeded_[e.dst]) {
        seeds_.push_back(e.dst);
        seeded_[e.dst] = 1;
      }
    }
  }

  // 3. Boundary seeds: intact in-neighbours of the cone re-derive its
  // distances.
  if (fused) {
    // Drop the candidates that entered the cone after the walk saw them
    // (a decrease source inside the cone stays, as in the directed pass).
    // Clearing their flags keeps every set flag listed in seeds_.
    std::size_t kept = first_candidate;
    for (std::size_t i = first_candidate; i < seeds_.size(); ++i) {
      const VertexId u = seeds_[i];
      if (in_cone_[u]) {
        seeded_[u] = 0;
      } else {
        seeds_[kept++] = u;
      }
    }
    seeds_.resize(kept);
  } else {
    // Directed: O(sum of cone in-degrees) via the transposed in-arc view.
    const Graph& rin = transpose_of(g);
    for (const VertexId c : cone_) {
      if ((++walked & 0xFFFu) == 0 && cancel != nullptr && cancel->poll()) {
        discard_warm();
        throw_cancelled(*cancel);
      }
      for (const WEdge& e : rin.out_neighbors(c)) {
        const VertexId u = e.dst;  // in-neighbour of c
        if (in_cone_[u] || seeded_[u] || warm[u] == kInfDist) continue;
        seeds_.push_back(u);
        seeded_[u] = 1;
      }
    }
  }

  // 4. Invalidate the cone and repair from the seeds with the normal
  // engine. No epoch bump: untouched vertices keep their warm entries.
  for (const VertexId c : cone_) dist.store(c, kInfDist);

  const std::uint64_t batches = vg.version() - bound_version_;
  shard.inc(CId::kRepairBatches, batches);
  shard.inc(CId::kRepairConeVertices, cone_.size());
  shard.inc(CId::kRepairSeedVertices, seeds_.size());

  // A small repair runs on the calling thread alone (kInlineRepairWork).
  const int workers =
      repair_workers(cone_.size() + seeds_.size(), solver_.team().size());
  RunContext ctx{workers < solver_.team().size() ? inline_team_
                                                 : solver_.team(),
                 registry,
                 solver_.trace() != nullptr ? solver_.trace() : opts.trace,
                 opts.observer, opts.chaos};
  ctx.dist = &dist;
  ctx.prefetch_lookahead = opts.prefetch_lookahead;
  ctx.cancel = cancel;

  // A cone too wide to patch needs no log: the engine decodes the array.
  const std::size_t patch_limit = n / kPatchShare;
  LoweredLog* log = cone_.size() <= patch_limit ? &lowered_ : nullptr;
  SsspResult result;
  try {
    result = wasp_sssp_seeded(g, seeds_, opts.delta, opts.wasp, ctx, log);
  } catch (...) {
    discard_warm();
    throw;
  }
  if (cancel != nullptr && cancel->cancel_requested()) {
    discard_warm();
    throw_cancelled(*cancel);
  }

  // 5. Publish a new buffer; the previous answer stays as its holders saw
  // it. Outside the cone and the log the array still holds the previous
  // answer, so patching re-reads exactly the entries that may differ.
  const std::size_t lowered = log != nullptr ? lowered_.size() : 0;
  const bool patch = log != nullptr && cone_.size() + lowered <= patch_limit;
  if (patch) {
    auto next = std::make_shared<std::vector<Distance>>(warm);
    for (const VertexId c : cone_) (*next)[c] = dist.load(c);
    for (int t = 0; t < lowered_.workers(); ++t) {
      for (const VertexId v : lowered_.list(t)) (*next)[v] = dist.load(v);
    }
    answer_ = std::move(next);
  } else {
    answer_ = std::make_shared<const std::vector<Distance>>(
        log != nullptr ? dist.snapshot() : std::move(result.dist));
  }

  bound_epoch_ = dist.epoch();
  last_ = RepairStats{};
  last_.full_solve = false;
  last_.batches = batches;
  last_.effects = effects.size();
  last_.cone_vertices = cone_.size();
  last_.seed_vertices = seeds_.size();
  last_.lowered = lowered;
  last_.patched = patch;
  last_.workers = workers;
  last_.seconds = result.metrics.seconds;
}

}  // namespace wasp
