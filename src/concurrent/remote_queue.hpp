// Batched remote relaxation queues for the partitioned Wasp engine.
//
// In partitioned execution (graph/partition.hpp, sssp/wasp.cpp,
// docs/NUMA.md) a worker never CASes another fragment's distances.
// When a relaxation's target vertex lives in a different fragment, the
// {vertex, dist} record is buffered in a per-destination batch and, once the
// batch fills (or at a bucket boundary), published onto the destination
// fragment's inbound channel. Destination workers drain the channel at round
// boundaries and apply the records to their own range. Cross-node traffic is
// thus a handful of cache lines per *batch* instead of a CAS ping-pong per
// *edge* — the libgrape-lite out_q_remote idea grafted onto Wasp's
// asynchronous protocol.
//
// Structure per destination fragment: a Treiber-style MPSC grab-all channel.
// Any worker may publish (multi-producer, lock-free CAS push); draining
// exchanges the whole list out at once, so concurrent grabbers get disjoint
// lists and no consumer lock is needed. There is no mutex-guarded shared
// state in this file — every shared word is a commented verify::atomic (the
// GUARDED_BY discipline of docs/CONCURRENCY.md's Clang Thread Safety
// Analysis has nothing to bite on here by construction).
//
// Termination accounting: the network carries a global `in_flight` record
// counter (seq_cst). A batch's records are added BEFORE the batch is
// published and subtracted only AFTER the drainer has applied them, so a
// zero read — the true count, not a stale one, because every operation on
// the counter is seq_cst — means no published record anywhere awaits
// application. That reading gates the votes of the partitioned engine's
// quiescence barrier (see terminate() in sssp/wasp.cpp for the full
// argument).
//
// Drain loops poll cancellation in the driver
// (records are applied in bounded per-batch loops here, so the poll sits at
// batch granularity).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "support/padded.hpp"
#include "support/types.hpp"
#include "verify/checked_atomic.hpp"

namespace wasp {

/// One boundary relaxation crossing fragments: "lower dist[vertex] to dist".
struct RemoteRelax {
  VertexId vertex;
  Distance dist;
};

/// A fixed-capacity block of remote relaxations, linked intrusively on the
/// destination fragment's channel. Records and count are written only by the
/// producing worker before the batch is published and read only by the
/// draining worker after it grabs the list; the publish CAS (release) /
/// grab exchange (acquire) pair is the happens-before edge that makes those
/// plain accesses race-free. The verify build checks exactly that via the
/// plain-cell value model.
class RemoteBatch {
 public:
  static constexpr std::uint32_t kCapacity = 256;

  /// Appends a record; call only while unpublished. Returns true when the
  /// batch is full after the append (time to flush).
  bool append(VertexId v, Distance d) {
    WASP_VERIFY_WR(&records_[count_]);
    records_[count_] = RemoteRelax{v, d};
    ++count_;
    return count_ == kCapacity;
  }

  [[nodiscard]] std::uint32_t size() const { return count_; }

  /// Reads record i; call only after grabbing the batch from a channel.
  [[nodiscard]] RemoteRelax record(std::uint32_t i) const {
    WASP_VERIFY_RD(&records_[i]);
    return records_[i];
  }

  /// Intrusive link, written by the publisher between CAS attempts and read
  /// by the drainer after the acquire grab — same hb edge as the records.
  RemoteBatch* next = nullptr;

 private:
  std::uint32_t count_ = 0;
  RemoteRelax records_[kCapacity];
};

/// Frees a batch, first telling the verify model to drop race-tracking state
/// for its storage. operator delete hands the block back to the allocator,
/// whose internal synchronization orders the hand-off to the next operator
/// new — a real happens-before edge the plain-cell model cannot see. Without
/// the retire, a recycled batch address reports a false race between the old
/// drainer's record() reads and the new owner's append() writes. Every
/// RemoteBatch deletion must go through here.
inline void free_batch(RemoteBatch* batch) {
  WASP_VERIFY_RETIRE(batch, sizeof(RemoteBatch));
  delete batch;
}

/// The per-run relay fabric: one inbound MPSC channel per fragment plus the
/// global in-flight record counter.
class RemoteRelayNetwork {
 public:
  explicit RemoteRelayNetwork(int num_fragments)
      : heads_(static_cast<std::size_t>(num_fragments)) {
    for (auto& h : heads_) {
      // relaxed: pre-publication single-threaded init; the ThreadTeam fork
      // that starts the workers orders it.
      h.value.store(nullptr, std::memory_order_relaxed);
    }
  }

  RemoteRelayNetwork(const RemoteRelayNetwork&) = delete;
  RemoteRelayNetwork& operator=(const RemoteRelayNetwork&) = delete;

  /// Frees batches left on channels by a cancelled run. Runs after the team
  /// join — no concurrent publishers remain.
  ~RemoteRelayNetwork() {
    for (auto& h : heads_) {
      // relaxed: post-join teardown; the join ordered all publishes.
      RemoteBatch* b = h.value.load(std::memory_order_relaxed);
      while (b != nullptr) {
        RemoteBatch* next = b->next;
        free_batch(b);
        b = next;
      }
    }
  }

  [[nodiscard]] int num_fragments() const {
    return static_cast<int>(heads_.size());
  }

  /// Publishes a filled batch onto fragment `dst`'s inbound channel.
  /// Ownership transfers to whichever drainer grabs the list.
  void publish(int dst, RemoteBatch* batch) {
    // Records are accounted BEFORE the batch becomes grabbable: a scanner
    // must never observe an empty channel + zero counter while records
    // exist. seq_cst: the termination verdict needs the TRUE count — an
    // acquire load could legally return a stale zero from before this add,
    // letting a worker vote quiescent while records sit on a channel (see
    // terminate() in sssp/wasp.cpp). The RMW also continues the
    // counter's release sequence, so readers inherit the records'
    // visibility.
    in_flight_.fetch_add(batch->size(), std::memory_order_seq_cst);

    auto& head = heads_[static_cast<std::size_t>(dst)].value;
    // Treiber push. relaxed initial load: the CAS below re-validates.
    RemoteBatch* old = head.load(std::memory_order_relaxed);
    do {
      batch->next = old;
      // release on success: publishes records_, count_ and next to the
      // drainer's acquire exchange. relaxed on failure: retry re-reads.
    } while (!head.compare_exchange_weak(old, batch, std::memory_order_release,
                                         std::memory_order_relaxed));
  }

  /// Atomically takes fragment `frag`'s whole inbound list (newest first);
  /// nullptr when empty. Concurrent grabbers obtain disjoint lists. The
  /// caller owns (and must delete) the returned batches, and must call
  /// on_drained() with each batch's size after applying its records.
  [[nodiscard]] RemoteBatch* grab_all(int frag) {
    // acquire: pairs with the publish CAS release — after the exchange the
    // grabbed batches' plain records/count/next reads are hb-ordered.
    return heads_[static_cast<std::size_t>(frag)].value.exchange(
        nullptr, std::memory_order_acquire);
  }

  /// Advisory non-empty probe for fragment `frag`'s channel (drive the
  /// opportunistic drain / keep a termination sweep alive). relaxed: a
  /// stale answer only delays a drain by one iteration; grab_all() carries
  /// the real synchronization.
  [[nodiscard]] bool pending(int frag) const {
    return heads_[static_cast<std::size_t>(frag)].value.load(
               std::memory_order_relaxed) != nullptr;
  }

  /// Subtracts `records` applied records. Call only after the records have
  /// been relaxed into the destination's range. seq_cst: keeps the counter's
  /// modification order totally ordered with the verdict's load (below) so
  /// a zero read is current; the RMW chain accumulates every drainer's
  /// release clock, so a scanner reading zero also inherits those
  /// distance writes and each drainer's preceding busy board publication.
  void on_drained(std::uint32_t records) {
    in_flight_.fetch_sub(records, std::memory_order_seq_cst);
  }

  /// Published-but-not-yet-applied record count. seq_cst: with the seq_cst
  /// add/sub this load returns the CURRENT count — the quiescence barrier
  /// in sssp/wasp.cpp votes only on a true zero, and a stale zero
  /// (legal for an acquire load) would unsoundly pass the verdict.
  [[nodiscard]] std::uint64_t in_flight() const {
    return in_flight_.load(std::memory_order_seq_cst);
  }

 private:
  std::vector<CachePadded<verify::atomic<RemoteBatch*>>> heads_;
  verify::atomic<std::uint64_t> in_flight_{0};
};

/// Per-worker outbound side: one open (unpublished) batch per destination
/// fragment, auto-flushed at `flush_threshold` records. Not thread-safe —
/// each worker owns exactly one.
class RemoteSender {
 public:
  RemoteSender(RemoteRelayNetwork& net, std::uint32_t flush_threshold)
      : net_(net),
        threshold_(flush_threshold == 0 ? 1
                   : flush_threshold > RemoteBatch::kCapacity
                       ? RemoteBatch::kCapacity
                       : flush_threshold),
        open_(static_cast<std::size_t>(net.num_fragments()), nullptr) {}

  RemoteSender(const RemoteSender&) = delete;
  RemoteSender& operator=(const RemoteSender&) = delete;

  /// Frees unpublished batches (non-empty only on cancelled runs; a normal
  /// run's terminate path flushes first).
  ~RemoteSender() {
    for (RemoteBatch* b : open_) {
      if (b != nullptr) free_batch(b);
    }
  }

  /// Buffers one record for fragment `dst`; publishes the open batch when it
  /// reaches the flush threshold. Returns true when a batch was published
  /// (callers count obs::CounterId::kRemoteBatches).
  bool send(int dst, VertexId v, Distance d) {
    RemoteBatch*& open = open_[static_cast<std::size_t>(dst)];
    if (open == nullptr) open = new RemoteBatch();
    open->append(v, d);
    if (open->size() < threshold_) return false;
    net_.publish(dst, open);
    open = nullptr;
    return true;
  }

  /// Publishes the open batch for fragment `dst`, if it holds any records
  /// (bucket-boundary / pre-idle flush). Returns true when a batch was
  /// published.
  bool flush(int dst) {
    RemoteBatch*& open = open_[static_cast<std::size_t>(dst)];
    if (open == nullptr || open->size() == 0) return false;
    net_.publish(dst, open);
    open = nullptr;
    return true;
  }

 private:
  RemoteRelayNetwork& net_;
  const std::uint32_t threshold_;
  std::vector<RemoteBatch*> open_;
};

}  // namespace wasp
