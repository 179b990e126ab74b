// RunObserver: run-lifecycle hooks for callers that want live progress
// rather than post-hoc snapshots. A Solver takes one through
// SsspOptions::observer. The scheduler harness (tests/test_verify.cpp) uses
// it to assert lifecycle invariants on its fault seeds, and tests use it to
// hold or cancel a run at a known point. (The bench watchdog is each
// trial's CancelToken deadline, not an observer.)
//
// Unlike the TraceRecorder this interface is NOT gated by WASP_OBS: it is
// product behavior, part of the Solver's public options. The algorithms
// only pay a pointer test per hook site when no observer is installed.
//
// Callbacks fire concurrently from any worker thread; implementations must
// be thread-safe and should be cheap (they run inside the measured region).
// A callback may throw only on a one-thread Solver: the exception leaves
// solve() and the Solver stays reusable. On a team, a throw abandons the
// helpers mid-job, because ThreadTeam::run returns without joining them.
#pragma once

#include <cstdint>

namespace wasp::obs {

class RunObserver {
 public:
  virtual ~RunObserver() = default;

  /// A synchronous algorithm finished gathering round `round`;
  /// `frontier_size` is the frontier it is about to process. Fired by
  /// participant 0 once per round.
  virtual void on_round(std::uint64_t /*round*/,
                        std::uint64_t /*frontier_size*/) {}

  /// A Wasp worker issued steal() on a victim's deque. Fired per attempt,
  /// so the call count matches the steal_attempts counter.
  virtual void on_steal(int /*thief*/, int /*victim*/, bool /*success*/) {}

  /// Worker `tid` is leaving the run: its termination scan confirmed global
  /// quiescence (async algorithms) or the work loop drained (queue-based
  /// ones). Fired exactly once per worker.
  virtual void on_termination(int /*tid*/) {}

  /// Worker `tid` crossed a processed-vertices milestone (every few
  /// thousand vertices; granularity is an implementation detail).
  virtual void on_progress(int /*tid*/, std::uint64_t /*vertices_processed*/) {}
};

}  // namespace wasp::obs
