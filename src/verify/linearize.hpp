// Wing–Gong linearizability checking (Wing & Gong, JPDC'93) with bounded
// reordering search, plus the sequential reference specs of Wasp's
// concurrent containers.
//
// A concurrent run records a *history*: per operation, the invoking thread,
// kind, arguments, result, and two timestamps drawn from one global atomic
// counter (invocation and response). The checker searches for a permutation
// that (a) respects real-time order — an operation may linearize before
// another only if it did not begin after the other ended — and (b) replays
// legally against a sequential spec. Because each thread's operations are
// totally ordered, the search state is just a per-thread cursor tuple plus
// the spec state, memoized to keep the bounded search cheap on the short
// histories the harness generates.
//
// This header is build-flavor independent: histories recorded under the
// WASP_VERIFY weak-memory model and histories from plain hardware runs are
// checked identically.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "support/padded.hpp"

namespace wasp::verify {

/// One completed operation in a history. `r`/`ok` encode the result;
/// interpretation is spec-specific.
struct Op {
  int tid = 0;
  int kind = 0;
  std::uint64_t a = 0;   ///< argument (key / value / pointer token)
  std::uint64_t b = 0;   ///< second argument
  std::uint64_t r = 0;   ///< result payload
  bool ok = true;        ///< result flag (e.g. try_pop success)
  std::uint64_t inv = 0; ///< invocation timestamp
  std::uint64_t res = 0; ///< response timestamp

  friend bool operator==(const Op&, const Op&) = default;
};

/// Records a complete history from concurrent threads: call `begin` before
/// the operation, fill in the result, then `end`. Per-thread vectors keep
/// recording allocation-quiet; the only shared state is the timestamp
/// counter (intentionally *not* a checked atomic — the recorder must not
/// perturb the model under test).
class HistoryRecorder {
 public:
  explicit HistoryRecorder(int threads)
      : per_thread_(static_cast<std::size_t>(threads)) {}

  Op begin(int tid, int kind, std::uint64_t a = 0, std::uint64_t b = 0) {
    Op op;
    op.tid = tid;
    op.kind = kind;
    op.a = a;
    op.b = b;
    op.inv = clock_.fetch_add(1, std::memory_order_acq_rel);
    return op;
  }

  void end(Op op) {
    op.res = clock_.fetch_add(1, std::memory_order_acq_rel);
    per_thread_[static_cast<std::size_t>(op.tid)].value.push_back(op);
  }

  /// All operations, per-thread order preserved. Call after joining.
  [[nodiscard]] std::vector<std::vector<Op>> collect() const {
    std::vector<std::vector<Op>> out;
    out.reserve(per_thread_.size());
    for (const auto& p : per_thread_) out.push_back(p.value);
    return out;
  }

 private:
  std::atomic<std::uint64_t> clock_{0};
  std::vector<CachePadded<std::vector<Op>>> per_thread_;
};

struct LinearizeResult {
  bool ok = true;
  bool budget_exhausted = false;  ///< search aborted; verdict inconclusive
  std::string explanation;
};

/// Spec concept:
///   struct Spec {
///     using State = ...;                 // copyable, operator< or hashable
///     static State initial();
///     static bool apply(State&, const Op&);   // false = op illegal here
///     static std::string describe(const Op&); // for failure reports
///     static std::string key(const State&);   // memo key serialization
///   };
template <typename Spec>
LinearizeResult linearize(const std::vector<std::vector<Op>>& by_thread,
                          std::uint64_t node_budget = 4'000'000) {
  struct Node {
    std::vector<std::size_t> cursor;
    typename Spec::State state;
  };
  const std::size_t p = by_thread.size();
  std::vector<Node> stack;
  stack.push_back(Node{std::vector<std::size_t>(p, 0), Spec::initial()});
  std::unordered_set<std::string> seen;
  std::uint64_t nodes = 0;

  LinearizeResult result;
  while (!stack.empty()) {
    Node node = std::move(stack.back());
    stack.pop_back();
    if (++nodes > node_budget) {
      result.budget_exhausted = true;
      result.ok = true;  // inconclusive counts as pass; caller may log
      return result;
    }

    bool done = true;
    // An op may linearize next iff no other *pending* op responded before
    // it was invoked (within a thread, ops are already in order, so only
    // each thread's next op can be minimal).
    std::uint64_t min_res = ~std::uint64_t{0};
    for (std::size_t t = 0; t < p; ++t) {
      if (node.cursor[t] < by_thread[t].size()) {
        done = false;
        min_res = std::min(min_res, by_thread[t][node.cursor[t]].res);
      }
    }
    if (done) return result;  // full linearization found

    for (std::size_t t = 0; t < p; ++t) {
      if (node.cursor[t] >= by_thread[t].size()) continue;
      const Op& op = by_thread[t][node.cursor[t]];
      if (op.inv > min_res) continue;  // began after a pending op ended
      typename Spec::State next = node.state;
      if (!Spec::apply(next, op)) continue;
      Node child{node.cursor, std::move(next)};
      ++child.cursor[t];
      std::ostringstream memo;
      for (std::size_t i = 0; i < p; ++i) memo << child.cursor[i] << ",";
      memo << Spec::key(child.state);
      if (seen.insert(memo.str()).second) stack.push_back(std::move(child));
    }
  }

  // No linearization exists: build a report naming the full history.
  result.ok = false;
  std::ostringstream why;
  why << "history is not linearizable against " << Spec::name() << ":\n";
  for (std::size_t t = 0; t < p; ++t)
    for (const Op& op : by_thread[t])
      why << "  t" << t << " [" << op.inv << "," << op.res << "] "
          << Spec::describe(op) << "\n";
  result.explanation = why.str();
  return result;
}

// --- sequential reference specs ------------------------------------------

/// ChaseLevDeque<T*>: owner pushes/pops at the bottom (LIFO), thieves steal
/// from the top (FIFO). A null pop_bottom is legal only on an empty deque
/// (the owner loses the bottom race only when a thief took the last
/// element, so an empty linearization point always exists). A null steal is
/// an *abort* — thieves return null on lost races with the deque non-empty
/// by design — so it carries no sequential constraint; lost elements are
/// caught by the conservation check at quiescence instead.
struct DequeSpec {
  enum Kind { kPush = 0, kPopBottom = 1, kSteal = 2 };
  using State = std::deque<std::uint64_t>;

  static const char* name() { return "ChaseLevDeque"; }
  static State initial() { return {}; }

  static bool apply(State& s, const Op& op) {
    switch (op.kind) {
      case kPush:
        s.push_back(op.a);
        return true;
      case kPopBottom:
        if (!op.ok) return s.empty();
        if (s.empty() || s.back() != op.r) return false;
        s.pop_back();
        return true;
      case kSteal:
        if (!op.ok) return true;  // abort: no sequential constraint
        if (s.empty() || s.front() != op.r) return false;
        s.pop_front();
        return true;
      default:
        return false;
    }
  }

  static std::string describe(const Op& op) {
    std::ostringstream out;
    switch (op.kind) {
      case kPush: out << "push(" << op.a << ")"; break;
      case kPopBottom:
        out << "pop_bottom() -> " << (op.ok ? std::to_string(op.r) : "null");
        break;
      case kSteal:
        out << "steal() -> " << (op.ok ? std::to_string(op.r) : "null");
        break;
      default: out << "?"; break;
    }
    return out.str();
  }

  static std::string key(const State& s) {
    std::ostringstream out;
    for (std::uint64_t v : s) out << v << ".";
    return out.str();
  }
};

/// Relaxed priority queues (MultiQueue, StealingMultiQueue): a *bag* spec.
/// Pops must return an element that was pushed and not yet popped (kills
/// duplication and invention); pop-empty is always legal, because relaxed
/// queues may miss elements that are buffered elsewhere. Element loss is
/// caught separately by the conservation check at quiescence.
struct BagSpec {
  enum Kind { kPush = 0, kPop = 1 };
  using State = std::map<std::pair<std::uint64_t, std::uint64_t>, int>;

  static const char* name() { return "relaxed priority queue (bag)"; }
  static State initial() { return {}; }

  static bool apply(State& s, const Op& op) {
    const std::pair<std::uint64_t, std::uint64_t> e{op.a, op.b};
    switch (op.kind) {
      case kPush:
        ++s[e];
        return true;
      case kPop: {
        if (!op.ok) return true;  // relaxed: spurious empty is legal
        const std::pair<std::uint64_t, std::uint64_t> got{op.r, op.b};
        auto it = s.find(got);
        if (it == s.end()) return false;
        if (--it->second == 0) s.erase(it);
        return true;
      }
      default:
        return false;
    }
  }

  static std::string describe(const Op& op) {
    std::ostringstream out;
    if (op.kind == kPush)
      out << "push(" << op.a << "," << op.b << ")";
    else if (op.ok)
      out << "pop() -> (" << op.r << "," << op.b << ")";
    else
      out << "pop() -> empty";
    return out.str();
  }

  static std::string key(const State& s) {
    std::ostringstream out;
    for (const auto& [e, n] : s) out << e.first << ":" << e.second << "x" << n << ".";
    return out.str();
  }
};

/// ChunkPool/ChunkArena: get() hands out chunks, put() returns them. The
/// safety property is exclusive ownership — a chunk is never outstanding
/// twice, across *all* pools sharing the arena (chunks migrate on steal).
struct PoolSpec {
  enum Kind { kGet = 0, kPut = 1 };
  using State = std::set<std::uint64_t>;  ///< outstanding chunk tokens

  static const char* name() { return "ChunkPool"; }
  static State initial() { return {}; }

  static bool apply(State& s, const Op& op) {
    switch (op.kind) {
      case kGet:
        return s.insert(op.r).second;  // double allocation = not linearizable
      case kPut:
        return s.erase(op.a) == 1;
      default:
        return false;
    }
  }

  static std::string describe(const Op& op) {
    std::ostringstream out;
    if (op.kind == kGet) out << "get() -> " << op.r;
    else out << "put(" << op.a << ")";
    return out.str();
  }

  static std::string key(const State& s) {
    std::ostringstream out;
    for (std::uint64_t v : s) out << v << ".";
    return out.str();
  }
};

}  // namespace wasp::verify
