// Versioned mutable graphs: the batched delta-update API (docs/DYNAMIC.md).
//
// A VersionedGraph wraps the immutable CSR `Graph` with the three things a
// dynamic workload needs:
//
//  * GraphDelta — a batch of edge updates (weight changes, inserts, erases)
//    applied atomically by apply(), which bumps a monotonically increasing
//    version(). Changes land in the interleaved WEdge CSR *in place* when
//    they can (one pass over the source vertex's list — no rebuild, no
//    allocation): a weight change patches the arc; an erase closes it, and
//    it stays in its slot as a *dead arc* of weight kDeadWeight; an insert
//    of an arc that has a dead slot reopens that slot. Only a genuinely new
//    arc goes to a per-vertex overlay, which replaces the touched vertex's
//    adjacency until compact() folds it back into a flat CSR.
//  * A journal of normalized per-arc effects (ArcEffect: old/new weight per
//    directed arc), so an incremental solver (sssp/incremental.hpp) can
//    catch its warm distance state up from any version the journal still
//    reaches — in time proportional to the affected cone, not the graph.
//  * Compaction on demand: graph() returns the flat CSR view every SSSP
//    engine consumes, compacting first when the overlay is dirty or dead
//    arcs pass 1 in kDeadShare stored arcs. Weight changes and close/reopen
//    streams (the road-traffic case) never compact. A compaction splices
//    the overlaid runs, and every row that holds dead arcs, into the CSR
//    in place: it shifts only the arcs after the first rewritten vertex
//    and writes only the rewritten lists, so a batch that touches a few
//    vertices costs a few memmoves, not an O(n + m) rebuild.
//
// Dead arcs are invisible to the logical view (out_neighbors, num_edges,
// validation): each sits at the tail of its row, behind the live arcs, and
// a sparse per-row count hides it. The flat CSR the engines read keeps
// them, and an engine reads a dead arc as no arc: every relaxation goes
// through saturating_add, so d + kDeadWeight never improves a distance.
//
// Thread-safety: apply()/compact()/graph() are writer-side calls — they must
// be exclusive with readers (no query may be traversing the CSR). The
// service layer (service::QueryService::update) provides that gate; direct
// users must fence updates against queries themselves. Const accessors are
// safe under concurrent reads.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "support/types.hpp"

namespace wasp {

/// One requested edge update. `w` is ignored for kErase.
struct EdgeUpdate {
  enum class Op : std::uint8_t {
    kSetWeight,  ///< set the weight of every existing (src, dst) arc
    kInsert,     ///< add a new (src, dst) arc (parallel arcs allowed)
    kErase,      ///< remove every (src, dst) arc
  };
  Op op = Op::kSetWeight;
  VertexId src = 0;
  VertexId dst = 0;
  Weight w = 0;

  friend bool operator==(const EdgeUpdate&, const EdgeUpdate&) = default;
};

/// A batch of edge updates, applied atomically by VersionedGraph::apply().
/// On undirected graphs each logical update touches both stored arcs; the
/// batch names the logical edge once. Build order is application order.
class GraphDelta {
 public:
  /// Changes the weight of an existing edge (every parallel (u,v) arc).
  /// apply() throws InvalidGraphError if the edge does not exist.
  GraphDelta& set_weight(VertexId u, VertexId v, Weight w) {
    ops_.push_back({EdgeUpdate::Op::kSetWeight, u, v, w});
    return *this;
  }

  /// Adds a new edge. Parallel edges are allowed (as in GraphBuilder's
  /// edges() source); self-loops are rejected at apply() like edges() drops
  /// them.
  GraphDelta& insert(VertexId u, VertexId v, Weight w) {
    ops_.push_back({EdgeUpdate::Op::kInsert, u, v, w});
    return *this;
  }

  /// Removes every (u, v) arc. apply() throws InvalidGraphError if none
  /// exists.
  GraphDelta& erase(VertexId u, VertexId v) {
    ops_.push_back({EdgeUpdate::Op::kErase, u, v, 0});
    return *this;
  }

  [[nodiscard]] bool empty() const { return ops_.empty(); }
  [[nodiscard]] std::size_t size() const { return ops_.size(); }
  void clear() { ops_.clear(); }
  [[nodiscard]] const std::vector<EdgeUpdate>& ops() const { return ops_; }

 private:
  std::vector<EdgeUpdate> ops_;
};

/// One applied, normalized, *directed* effect in the journal. Undirected
/// updates journal both arcs. The incremental solver classifies each effect
/// as a decrease (seed relaxation from src) or an increase (invalidate dst's
/// downstream cone) by comparing old_w and new_w.
struct ArcEffect {
  VertexId src = 0;
  VertexId dst = 0;
  Weight old_w = 0;  ///< meaningful when existed
  Weight new_w = 0;  ///< meaningful when exists
  bool existed = true;  ///< false for an inserted arc
  bool exists = true;   ///< false for an erased arc

  /// A relaxation through this arc can only have gotten cheaper (insert or
  /// weight decrease) — repair seeds src.
  [[nodiscard]] bool is_decrease() const {
    return (!existed && exists) || (existed && exists && new_w < old_w);
  }
  /// A shortest path through this arc may have been destroyed (erase or
  /// weight increase) — repair invalidates dst's cone.
  [[nodiscard]] bool is_increase() const {
    return (existed && !exists) || (existed && exists && new_w > old_w);
  }
};

/// Weight of a dead arc, a closed arc left in its CSR slot. Relaxing it
/// saturates (saturating_add), so it never improves a distance.
inline constexpr Weight kDeadWeight = kInfDist;

/// A mutable graph: flat interleaved-WEdge CSR with dead arcs + per-vertex
/// overlay + monotonically increasing version + effect journal. See file
/// comment.
class VersionedGraph {
 public:
  /// graph() compacts once more than 1 in kDeadShare stored arcs is dead:
  /// past that, more than one arc in eight the engines scan is wasted.
  static constexpr EdgeIndex kDeadShare = 8;

  /// Wraps `base` as version 1.
  explicit VersionedGraph(Graph base);

  VersionedGraph(const VersionedGraph&) = delete;
  VersionedGraph& operator=(const VersionedGraph&) = delete;
  VersionedGraph(VersionedGraph&&) = default;
  VersionedGraph& operator=(VersionedGraph&&) = default;

  /// Current version; bumped by exactly 1 per applied batch.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  /// Process-unique identity of this graph object (a UniqueId: assigned at
  /// construction, transferred by move with a fresh one for the moved-from
  /// husk, never reused). Warm consumers (sssp/incremental.hpp) bind this —
  /// not the address — so a different VersionedGraph reconstructed at a
  /// recycled heap address can never pass for the one they answered. It
  /// names the object, not its content: flat().stamp() changes with every
  /// in-place patch, uid() never does.
  [[nodiscard]] std::uint64_t uid() const { return uid_.value(); }

  /// Applies `delta` as one batch: weight changes, erases and reopenings in
  /// place, new arcs to the overlay. Bumps and returns the new version.
  /// Throws
  /// InvalidGraphError (edge missing / self-loop / id out of range) with
  /// the graph unchanged — validation runs before the first mutation. A
  /// resource failure mid-batch (bad_alloc) can leave the batch partially
  /// applied; the graph then still bumps version() and invalidates the
  /// whole journal, so warm consumers never replay against the torn state
  /// and instead full-solve the graph as it now is. A batch that writes the
  /// flat CSR in place (and a torn batch) renews flat().stamp(); a batch
  /// that only stages overlay arcs leaves that to compact().
  std::uint64_t apply(const GraphDelta& delta);

  /// The flat CSR view every solver consumes, dead arcs included;
  /// compacts first when dirty. Writer-side (may mutate); the address of
  /// the returned Graph is stable across compactions.
  [[nodiscard]] const Graph& graph() {
    if (dirty()) compact();
    return flat_;
  }

  /// The flat CSR view when the graph is known clean (readers on the query
  /// path use this; asserts !dirty()).
  [[nodiscard]] const Graph& flat() const {
    assert(!dirty());
    return flat_;
  }

  /// True while new arcs are staged in the overlay or dead arcs pass 1 in
  /// kDeadShare stored arcs: exactly when graph() would compact. Weight
  /// changes, erases and reopenings below the cap never dirty the graph.
  [[nodiscard]] bool dirty() const {
    return !overlay_.empty() || dead_arcs_ * kDeadShare > flat_.num_edges();
  }

  /// Folds the overlay back into the flat CSR in place and drops every dead
  /// arc: the untouched segments between rewritten vertices (overlaid or
  /// holding dead arcs) slide by memmove and each rewritten list is written
  /// at its new offset. Cost is O(rewritten degrees + arcs and offsets
  /// after the first rewritten vertex); allocates the rewritten lists, and
  /// the adjacency only when the net arc count grows past its capacity.
  /// Exception guarantee: a bad_alloc (or an overlaid arc out of range)
  /// leaves the logical view and the flat CSR untouched. No-op when there
  /// is no overlay and no dead arc; does not change version(), and renews
  /// flat().stamp() when it rewrites the CSR.
  void compact();

  // --- two-level read view (overlay-aware; valid even while dirty) --------

  [[nodiscard]] VertexId num_vertices() const { return flat_.num_vertices(); }
  /// Live (directed) arcs, overlay included, dead arcs excluded.
  [[nodiscard]] EdgeIndex num_edges() const { return live_edges_; }
  [[nodiscard]] bool is_undirected() const { return flat_.is_undirected(); }

  /// Live outgoing adjacency of u: the overlay replacement when u is
  /// overlaid, else the flat CSR row without its dead tail.
  [[nodiscard]] std::span<const WEdge> out_neighbors(VertexId u) const {
    assert(u < num_vertices());
    if (!overlay_.empty() && overlay_index_[u] != kNoEntry) {
      const auto& list = overlay_[overlay_index_[u]].arcs;
      return {list.data(), list.size()};
    }
    return live_row(u);
  }

  /// Dead arcs in the flat CSR (closed, not yet reopened or compacted).
  [[nodiscard]] EdgeIndex dead_arcs() const { return dead_arcs_; }

  // --- journal ------------------------------------------------------------

  /// Arc effects applied by versions (since, version()] in application
  /// order, or std::nullopt-like empty failure when the journal has been
  /// trimmed past `since` (the caller must fall back to a full solve).
  /// `ok` distinguishes "nothing happened" from "journal lost".
  struct JournalView {
    bool ok = false;
    std::span<const ArcEffect> effects;
  };
  [[nodiscard]] JournalView journal_since(std::uint64_t since) const;

  /// Oldest version the journal can still replay *from* (journal_since(v)
  /// succeeds for v >= journal_floor()).
  [[nodiscard]] std::uint64_t journal_floor() const { return journal_floor_; }

  /// Caps the journal at roughly `max_effects` arc effects; older batches
  /// are dropped and journal_floor() rises. Default 1 << 22.
  void set_journal_limit(std::size_t max_effects) {
    journal_limit_ = max_effects;
    trim_journal();
  }

  // --- observability (mirrored into MetricsRegistry by the consumers) -----

  /// Compactions performed over this graph's lifetime.
  [[nodiscard]] std::uint64_t compactions() const { return compactions_; }
  /// Arcs compaction moved (slid segments) plus arcs it wrote (rewritten
  /// lists), over this graph's lifetime. Independent of thread count.
  [[nodiscard]] std::uint64_t compacted_arcs() const {
    return compacted_arcs_;
  }
  /// Directed arc effects applied over this graph's lifetime.
  [[nodiscard]] std::uint64_t arc_effects_applied() const {
    return effects_applied_;
  }

 private:
  static constexpr std::uint32_t kNoEntry = 0xFFFFFFFFu;

  /// One overlaid vertex: its id and the list that replaces its adjacency.
  struct OverlayRun {
    VertexId vertex;
    std::vector<WEdge> arcs;
  };

  /// A flat row with dead arcs: its vertex and how many of its arcs (the
  /// row's tail) are dead.
  struct DeadRow {
    VertexId vertex;
    std::uint32_t count;
  };

  /// u's flat CSR row without its dead tail.
  [[nodiscard]] std::span<const WEdge> live_row(VertexId u) const {
    const std::span<const WEdge> row = flat_.out_neighbors(u);
    if (dead_rows_.empty() || dead_index_[u] == kNoEntry) return row;
    return row.first(row.size() - dead_rows_[dead_index_[u]].count);
  }
  /// Copies u's live adjacency into the overlay (first new arc at u) and
  /// returns the mutable list.
  std::vector<WEdge>& overlay_for(VertexId u);
  /// u's dead-arc count, registering the row on first use.
  std::uint32_t& dead_count(VertexId u);
  /// Applies one directed-arc update, journaling its effects into
  /// `effects_`. Returns the number of arcs touched; sets `wrote_flat` when
  /// it wrote the flat CSR.
  std::size_t apply_arc(EdgeUpdate::Op op, VertexId u, VertexId v, Weight w,
                        bool& wrote_flat);
  /// The insert and erase halves of apply_arc on a row that has no overlay.
  bool reopen_in_place(VertexId u, VertexId v, Weight w);
  std::size_t close_in_place(VertexId u, VertexId v);
  void validate_batch(const GraphDelta& delta) const;
  void trim_journal();

  Graph flat_;  ///< member (stable address); weights patched in place
  /// Sparse per-vertex overlay: overlay_index_[u] indexes overlay_, or
  /// kNoEntry. An overlaid vertex's full live adjacency lives in overlay_,
  /// which is empty exactly when no new arc is staged.
  std::vector<std::uint32_t> overlay_index_;
  std::vector<OverlayRun> overlay_;
  /// Sparse per-row dead counts: dead_index_[u] indexes dead_rows_, or
  /// kNoEntry. A row stays listed (its count may fall to 0 as its arcs
  /// reopen) until the next compaction drops its dead arcs.
  std::vector<std::uint32_t> dead_index_;
  std::vector<DeadRow> dead_rows_;
  EdgeIndex dead_arcs_ = 0;

  std::uint64_t version_ = 1;
  EdgeIndex live_edges_ = 0;

  // Journal: flat effect array + per-batch (version, end index) fenceposts.
  std::vector<ArcEffect> effects_;
  std::vector<std::pair<std::uint64_t, std::size_t>> batch_ends_;
  std::uint64_t journal_floor_ = 1;
  std::size_t journal_limit_ = std::size_t{1} << 22;

  std::uint64_t compactions_ = 0;
  std::uint64_t compacted_arcs_ = 0;
  std::uint64_t effects_applied_ = 0;
  UniqueId uid_;
};

}  // namespace wasp
