#include "graph/delta.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <sstream>
#include <utility>

#include "support/errors.hpp"

namespace wasp {

namespace {

/// Arcs a logical update expands to: (u,v) always, plus (v,u) on undirected
/// graphs (GraphBuilder stores every undirected edge in both directions).
struct ArcPair {
  VertexId a_src, a_dst;
  bool mirrored;
  VertexId b_src, b_dst;
};

ArcPair expand(const EdgeUpdate& op, bool undirected) {
  return {op.src, op.dst, undirected, op.dst, op.src};
}

/// The (dst, w) order GraphBuilder leaves each row in.
bool arc_less(const WEdge& a, const WEdge& b) {
  return a.dst < b.dst || (a.dst == b.dst && a.w < b.w);
}

}  // namespace

VersionedGraph::VersionedGraph(Graph base)
    : flat_(std::move(base)),
      overlay_index_(flat_.num_vertices(), kNoEntry),
      dead_index_(flat_.num_vertices(), kNoEntry),
      live_edges_(flat_.num_edges()) {}

void VersionedGraph::validate_batch(const GraphDelta& delta) const {
  // Dry run: check every op against the graph state *plus the batch's own
  // staged structural changes*, so apply() either applies the whole batch or
  // throws with the graph untouched.
  std::map<std::pair<VertexId, VertexId>, std::int64_t> staged;
  const VertexId n = num_vertices();
  auto arc_count = [&](VertexId u, VertexId v) {
    std::int64_t count = 0;
    for (const WEdge& e : out_neighbors(u))
      if (e.dst == v) ++count;
    auto it = staged.find({u, v});
    if (it != staged.end()) count += it->second;
    return count;
  };
  for (const EdgeUpdate& op : delta.ops()) {
    if (op.src >= n || op.dst >= n) {
      std::ostringstream os;
      os << "VersionedGraph::apply: edge (" << op.src << ", " << op.dst
         << ") out of range [0, " << n << ")";
      throw InvalidGraphError(os.str());
    }
    if (op.src == op.dst) {
      std::ostringstream os;
      os << "VersionedGraph::apply: self-loop on vertex " << op.src
         << " (the edge set excludes u == v, as in GraphBuilder::edges)";
      throw InvalidGraphError(os.str());
    }
    switch (op.op) {
      case EdgeUpdate::Op::kSetWeight:
      case EdgeUpdate::Op::kErase: {
        if (arc_count(op.src, op.dst) <= 0) {
          std::ostringstream os;
          os << "VersionedGraph::apply: "
             << (op.op == EdgeUpdate::Op::kErase ? "erase" : "set_weight")
             << " on missing edge (" << op.src << ", " << op.dst << ")";
          throw InvalidGraphError(os.str());
        }
        if (op.op == EdgeUpdate::Op::kErase) {
          const std::int64_t gone = arc_count(op.src, op.dst);
          staged[{op.src, op.dst}] -= gone;
          if (is_undirected()) staged[{op.dst, op.src}] -= gone;
        }
        break;
      }
      case EdgeUpdate::Op::kInsert:
        staged[{op.src, op.dst}] += 1;
        if (is_undirected()) staged[{op.dst, op.src}] += 1;
        break;
    }
  }
}

std::vector<WEdge>& VersionedGraph::overlay_for(VertexId u) {
  if (overlay_index_[u] == kNoEntry) {
    const std::span<const WEdge> base = live_row(u);
    overlay_.push_back({u, std::vector<WEdge>(base.begin(), base.end())});
    // Indexed only once the run exists, so a bad_alloc above leaves u
    // reading the flat CSR.
    overlay_index_[u] = static_cast<std::uint32_t>(overlay_.size() - 1);
  }
  return overlay_[overlay_index_[u]].arcs;
}

std::uint32_t& VersionedGraph::dead_count(VertexId u) {
  if (dead_index_[u] == kNoEntry) {
    dead_rows_.push_back({u, 0});
    dead_index_[u] = static_cast<std::uint32_t>(dead_rows_.size() - 1);
  }
  return dead_rows_[dead_index_[u]].count;
}

bool VersionedGraph::reopen_in_place(VertexId u, VertexId v, Weight w) {
  if (dead_index_[u] == kNoEntry) return false;
  std::uint32_t& dead = dead_rows_[dead_index_[u]].count;
  WEdge* const row = flat_.adjacency_.data() + flat_.offsets_[u];
  const std::size_t live = flat_.out_degree(u) - dead;
  WEdge* const tail_end = row + live + dead;
  WEdge* const slot = std::find_if(row + live, tail_end, [&](const WEdge& e) {
    return e.dst == v;
  });
  if (slot == tail_end) return false;
  effects_.push_back({u, v, 0, w, false, true});
  // The slot moves to the head of the dead tail, then the live arcs after
  // the new arc's sorted position shift right over it: the row stays
  // sorted live arcs followed by dead ones, and keeps its (u, v) arcs.
  std::swap(*slot, row[live]);
  const WEdge rec{v, w};
  WEdge* const pos = std::lower_bound(row, row + live, rec, arc_less);
  std::move_backward(pos, row + live, row + live + 1);
  *pos = rec;
  --dead;
  --dead_arcs_;
  ++live_edges_;
  return true;
}

std::size_t VersionedGraph::close_in_place(VertexId u, VertexId v) {
  std::uint32_t& dead = dead_count(u);
  WEdge* const row = flat_.adjacency_.data() + flat_.offsets_[u];
  std::size_t live = flat_.out_degree(u) - dead;
  std::size_t touched = 0;
  for (std::size_t i = 0; i < live;) {
    if (row[i].dst != v) {
      ++i;
      continue;
    }
    effects_.push_back({u, v, row[i].w, 0, true, false});
    // The live arcs after it shift left; it becomes the dead tail's head.
    std::move(row + i + 1, row + live, row + i);
    row[--live] = WEdge{v, kDeadWeight};
    ++dead;
    ++dead_arcs_;
    --live_edges_;
    ++touched;
  }
  return touched;
}

std::size_t VersionedGraph::apply_arc(EdgeUpdate::Op op, VertexId u,
                                      VertexId v, Weight w, bool& wrote_flat) {
  const bool overlaid = overlay_index_[u] != kNoEntry;
  switch (op) {
    case EdgeUpdate::Op::kSetWeight: {
      // In place: weight-only changes never dirty the overlay. Every
      // parallel (u, v) arc collapses to the one new weight, so the sorted-
      // by-(dst, w) layout GraphBuilder produced stays sorted.
      std::size_t touched = 0;
      WEdge* edges;
      std::size_t count;
      if (overlaid) {
        auto& list = overlay_[overlay_index_[u]].arcs;
        edges = list.data();
        count = list.size();
      } else {
        edges = flat_.adjacency_.data() + flat_.offsets_[u];
        count = live_row(u).size();
      }
      for (std::size_t i = 0; i < count; ++i) {
        if (edges[i].dst == v && edges[i].w != w) {
          effects_.push_back({u, v, edges[i].w, w, true, true});
          edges[i].w = w;
          ++touched;
        }
      }
      wrote_flat = wrote_flat || (touched > 0 && !overlaid);
      return touched;
    }
    case EdgeUpdate::Op::kInsert: {
      if (!overlaid && reopen_in_place(u, v, w)) {
        wrote_flat = true;
        return 1;
      }
      std::vector<WEdge>& list = overlay_for(u);
      const WEdge rec{v, w};
      // Sorted insertion keeps the overlaid list in the (dst, w) order a
      // GraphBuilder rebuild would produce, so compaction round-trips exactly.
      list.insert(std::lower_bound(list.begin(), list.end(), rec, arc_less),
                  rec);
      effects_.push_back({u, v, 0, w, false, true});
      ++live_edges_;
      return 1;
    }
    case EdgeUpdate::Op::kErase: {
      if (!overlaid) {
        const std::size_t touched = close_in_place(u, v);
        wrote_flat = wrote_flat || touched > 0;
        return touched;
      }
      std::vector<WEdge>& list = overlay_[overlay_index_[u]].arcs;
      std::size_t touched = 0;
      for (auto it = list.begin(); it != list.end();) {
        if (it->dst == v) {
          effects_.push_back({u, v, it->w, 0, true, false});
          it = list.erase(it);
          ++touched;
          --live_edges_;
        } else {
          ++it;
        }
      }
      return touched;
    }
  }
  return 0;
}

std::uint64_t VersionedGraph::apply(const GraphDelta& delta) {
  if (delta.empty()) return version_;  // no-op: no bump, no journal entry
  validate_batch(delta);

  // A write to the flat CSR (a weight patch, a close, a reopen) must change
  // its content stamp with it; overlay-only writes leave that to compact().
  bool wrote_flat = false;
  std::size_t touched = 0;
  try {
    for (const EdgeUpdate& op : delta.ops()) {
      const ArcPair arcs = expand(op, is_undirected());
      touched += apply_arc(op.op, arcs.a_src, arcs.a_dst, op.w, wrote_flat);
      if (arcs.mirrored)
        touched += apply_arc(op.op, arcs.b_src, arcs.b_dst, op.w, wrote_flat);
    }
  } catch (...) {
    // Validation already passed, so only a resource failure (bad_alloc from
    // overlay or journal growth) lands here — with the batch half-applied.
    // Bump the version and raise the journal floor past every older
    // binding: a warm consumer must never mistake the mutated arcs for its
    // bound version, and with the journal gone it is forced to a full
    // solve against the graph as it now is.
    ++version_;
    journal_floor_ = version_;
    effects_.clear();
    batch_ends_.clear();
    flat_.stamp_.renew();
    throw;
  }
  if (wrote_flat) flat_.stamp_.renew();
  effects_applied_ += touched;
  ++version_;
  batch_ends_.emplace_back(version_, effects_.size());
  trim_journal();
  return version_;
}

void VersionedGraph::compact() {
  if (overlay_.empty() && dead_arcs_ == 0) return;
  // Dead arcs leave with the splice: a row holding one is rewritten from its
  // live arcs. The copies are the only other allocations before the first
  // write, and each leaves its row's logical view as it was.
  for (const DeadRow& row : dead_rows_)
    if (row.count > 0) (void)overlay_for(row.vertex);
  const VertexId n = num_vertices();
  std::vector<EdgeIndex>& offsets = flat_.offsets_;
  AdjacencyVector& adjacency = flat_.adjacency_;
  const EdgeIndex m = offsets[n];

  // Graph::from_csr's guarantees, checked on the overlaid runs only: every
  // other run was validated when the CSR was built.
  for (const OverlayRun& run : overlay_) {
    for (const WEdge& e : run.arcs) {
      if (e.dst >= n) {
        std::ostringstream os;
        os << "VersionedGraph::compact: arc (" << run.vertex << ", " << e.dst
           << ") out of range [0, " << n << ")";
        throw InvalidGraphError(os.str());
      }
    }
  }
  // A run's growth (new degree - old degree), read off the old offsets:
  // every use below comes before the offsets are rewritten.
  const auto growth = [&](const OverlayRun& run) {
    return static_cast<std::int64_t>(run.arcs.size()) -
           static_cast<std::int64_t>(offsets[run.vertex + 1] -
                                     offsets[run.vertex]);
  };
  std::int64_t net = 0;
  for (const OverlayRun& run : overlay_) net += growth(run);
  // The last allocation, before the first write: resize() gives the strong
  // guarantee, so a bad_alloc leaves the flat CSR as it was. Nothing below
  // throws (std::sort is in place and moving a run's vector is noexcept).
  if (net > 0) adjacency.resize(static_cast<std::size_t>(m + net));
  std::sort(overlay_.begin(), overlay_.end(),
            [](const OverlayRun& a, const OverlayRun& b) {
              return a.vertex < b.vertex;
            });

  // Segment i holds the untouched arcs between overlaid vertex i and the
  // next one (or the end); it slides by the cumulative growth up to and
  // including run i. Left-moving segments go left to right and right-moving
  // ones right to left, so each destination only overlaps arcs that have
  // already moved out of the way or the overlaid runs being replaced. (A
  // left mover and a right mover never overlap, so the passes commute; the
  // direction within each pass is what matters.)
  WEdge* const arcs = adjacency.data();
  const std::size_t runs = overlay_.size();
  std::uint64_t moved = 0;
  const auto slide = [&](std::size_t i, std::int64_t shift) {
    const EdgeIndex begin = offsets[overlay_[i].vertex + 1];
    const EdgeIndex end = i + 1 < runs ? offsets[overlay_[i + 1].vertex] : m;
    if (shift == 0 || begin == end) return;
    std::memmove(arcs + begin + shift, arcs + begin,
                 static_cast<std::size_t>(end - begin) * sizeof(WEdge));
    moved += end - begin;
  };
  std::int64_t shift = 0;
  for (std::size_t i = 0; i < runs; ++i) {
    shift += growth(overlay_[i]);
    if (shift < 0) slide(i, shift);
  }
  for (std::size_t i = runs; i-- > 0;) {
    if (shift > 0) slide(i, shift);
    shift -= growth(overlay_[i]);
  }

  // Write each run at its new offset (offsets[u] is already final: it moved
  // with the previous segment) and shift the offsets up to the next run.
  // Unsigned wrap-around adds a negative shift exactly.
  std::uint64_t written = 0;
  for (std::size_t i = 0; i < runs; ++i) {
    const OverlayRun& run = overlay_[i];
    const VertexId u = run.vertex;
    std::copy(run.arcs.begin(), run.arcs.end(), arcs + offsets[u]);
    written += run.arcs.size();
    const EdgeIndex old_end = offsets[u + 1];
    offsets[u + 1] = offsets[u] + run.arcs.size();
    const EdgeIndex delta = offsets[u + 1] - old_end;
    const VertexId next = i + 1 < runs ? overlay_[i + 1].vertex : n;
    for (std::size_t v = std::size_t{u} + 2; v <= next; ++v)
      offsets[v] += delta;
  }
  assert(offsets[n] == live_edges_);
  if (net < 0) adjacency.resize(static_cast<std::size_t>(offsets[n]));

  for (const OverlayRun& run : overlay_)
    overlay_index_[run.vertex] = kNoEntry;
  overlay_.clear();
  for (const DeadRow& row : dead_rows_) dead_index_[row.vertex] = kNoEntry;
  dead_rows_.clear();
  dead_arcs_ = 0;
  flat_.stamp_.renew();
  ++compactions_;
  compacted_arcs_ += moved + written;
}

VersionedGraph::JournalView VersionedGraph::journal_since(
    std::uint64_t since) const {
  JournalView view;
  if (since > version_ || since < journal_floor_) return view;  // ok = false
  view.ok = true;
  if (since == version_) return view;  // nothing newer; empty span
  // First batch with version > since: its effects start where the previous
  // batch ended.
  std::size_t start = 0;
  for (const auto& [version, end] : batch_ends_) {
    if (version > since) break;
    start = end;
  }
  view.effects = {effects_.data() + start, effects_.size() - start};
  return view;
}

void VersionedGraph::trim_journal() {
  if (effects_.size() <= journal_limit_) return;
  // Drop whole batches from the front until the remainder fits. A single
  // batch larger than the cap is dropped too — the floor then rises to the
  // current version and only catch-up from HEAD stays possible.
  std::size_t drop = 0;
  while (drop < batch_ends_.size() &&
         effects_.size() - (drop == 0 ? 0 : batch_ends_[drop - 1].second) >
             journal_limit_) {
    ++drop;
  }
  if (drop == 0) return;
  const std::size_t drop_effects = batch_ends_[drop - 1].second;
  journal_floor_ = batch_ends_[drop - 1].first;
  effects_.erase(effects_.begin(),
                 effects_.begin() + static_cast<std::ptrdiff_t>(drop_effects));
  batch_ends_.erase(batch_ends_.begin(),
                    batch_ends_.begin() + static_cast<std::ptrdiff_t>(drop));
  for (auto& [version, end] : batch_ends_) end -= drop_effects;
}

}  // namespace wasp
