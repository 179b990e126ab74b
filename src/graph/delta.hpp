// Versioned mutable graphs: the batched delta-update API (docs/DYNAMIC.md).
//
// A VersionedGraph wraps the immutable CSR `Graph` with the three things a
// dynamic workload needs:
//
//  * GraphDelta — a batch of edge updates (weight changes, inserts, erases)
//    applied atomically by apply(), which bumps a monotonically increasing
//    version(). Weight changes are patched *in place* into the interleaved
//    WEdge CSR (one pass over the source vertex's list — no rebuild, no
//    allocation);
//    structural changes (insert/erase) go to a per-vertex overlay that
//    replaces the touched vertex's adjacency until compact() folds the
//    overlay back into a flat CSR.
//  * A journal of normalized per-arc effects (ArcEffect: old/new weight per
//    directed arc), so an incremental solver (sssp/incremental.hpp) can
//    catch its warm distance state up from any version the journal still
//    reaches — in time proportional to the affected cone, not the graph.
//  * Compaction on demand: graph() returns the flat CSR view every SSSP
//    engine consumes, compacting first when the overlay is dirty. Between
//    structural batches graph() is free; weight-only streams (the road-
//    traffic case) never compact at all. A compaction splices the overlaid
//    runs into the CSR in place: it shifts only the arcs after the first
//    overlaid vertex and writes only the overlaid lists, so a batch that
//    touches a few vertices costs a few memmoves, not an O(n + m) rebuild.
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

  /// Adds a new edge. Parallel edges are allowed (as in Graph::from_edges);
  /// self-loops are rejected at apply() like from_edges drops them.
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

/// A mutable graph: flat interleaved-WEdge CSR + per-vertex overlay +
/// monotonically increasing version + effect journal. See file comment.
class VersionedGraph {
 public:
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

  /// Applies `delta` as one batch: weight changes in place, structural
  /// changes to the overlay. Bumps and returns the new version. Throws
  /// InvalidGraphError (edge missing / self-loop / id out of range) with
  /// the graph unchanged — validation runs before the first mutation. A
  /// resource failure mid-batch (bad_alloc) can leave the batch partially
  /// applied; the graph then still bumps version() and invalidates the
  /// whole journal, so warm consumers never replay against the torn state
  /// and instead full-solve the graph as it now is. A batch with weight
  /// changes (and a torn batch) patches the flat CSR in place and renews
  /// flat().stamp(); a purely structural batch leaves it to compact().
  std::uint64_t apply(const GraphDelta& delta);

  /// The flat CSR view every solver consumes; compacts first when dirty.
  /// Writer-side (may mutate); the address of the returned Graph is stable
  /// across compactions.
  [[nodiscard]] const Graph& graph() {
    if (dirty()) compact();
    return flat_;
  }

  /// The flat CSR view when the overlay is known clean (readers on the
  /// query path use this; asserts !dirty()).
  [[nodiscard]] const Graph& flat() const {
    assert(!dirty());
    return flat_;
  }

  /// True while insert/erase effects are staged in the overlay (weight-only
  /// batches never dirty the graph).
  [[nodiscard]] bool dirty() const { return !overlay_.empty(); }

  /// Folds the overlay back into the flat CSR in place: the untouched
  /// segments between overlaid vertices slide by memmove and each overlaid
  /// list is written at its new offset. Cost is O(overlaid degrees + arcs
  /// and offsets after the first overlaid vertex); allocates only when the
  /// net arc count grows past the adjacency capacity. Strong exception
  /// guarantee: a bad_alloc (or an overlaid arc out of range) leaves the
  /// graph untouched. No-op when clean; does not change version(), and
  /// renews flat().stamp() when it rewrites the CSR.
  void compact();

  // --- two-level read view (overlay-aware; valid even while dirty) --------

  [[nodiscard]] VertexId num_vertices() const { return flat_.num_vertices(); }
  /// Stored (directed) arcs, overlay included.
  [[nodiscard]] EdgeIndex num_edges() const { return live_edges_; }
  [[nodiscard]] bool is_undirected() const { return flat_.is_undirected(); }

  /// Outgoing adjacency of u: the overlay replacement when u is overlaid,
  /// the flat CSR otherwise.
  [[nodiscard]] std::span<const WEdge> out_neighbors(VertexId u) const {
    assert(u < num_vertices());
    if (!overlay_.empty() && overlay_index_[u] != kNoOverlay) {
      const auto& list = overlay_[overlay_index_[u]].arcs;
      return {list.data(), list.size()};
    }
    return flat_.out_neighbors(u);
  }

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

  /// Overlay compactions performed over this graph's lifetime.
  [[nodiscard]] std::uint64_t compactions() const { return compactions_; }
  /// Arcs compaction moved (slid segments) plus arcs it wrote (overlaid
  /// lists), over this graph's lifetime. Independent of thread count.
  [[nodiscard]] std::uint64_t compacted_arcs() const {
    return compacted_arcs_;
  }
  /// Directed arc effects applied over this graph's lifetime.
  [[nodiscard]] std::uint64_t arc_effects_applied() const {
    return effects_applied_;
  }

 private:
  static constexpr std::uint32_t kNoOverlay = 0xFFFFFFFFu;

  /// One overlaid vertex: its id and the list that replaces its adjacency.
  struct OverlayRun {
    VertexId vertex;
    std::vector<WEdge> arcs;
  };

  /// Copies u's adjacency into the overlay (first structural touch) and
  /// returns the mutable list.
  std::vector<WEdge>& overlay_for(VertexId u);
  /// Applies one directed-arc update, journaling its effects into
  /// `effects_`. Returns the number of arcs touched.
  std::size_t apply_arc(EdgeUpdate::Op op, VertexId u, VertexId v, Weight w);
  void validate_batch(const GraphDelta& delta) const;
  void trim_journal();

  Graph flat_;  ///< member (stable address); weights patched in place
  /// Sparse per-vertex overlay: overlay_index_[u] indexes overlay_, or
  /// kNoOverlay. An overlaid vertex's full adjacency lives in overlay_,
  /// which is empty exactly when the graph is clean.
  std::vector<std::uint32_t> overlay_index_;
  std::vector<OverlayRun> overlay_;

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
