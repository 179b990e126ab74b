#include "sssp/solver.hpp"

#include <utility>

#include "sssp/sssp.hpp"
#include "support/errors.hpp"
#include "support/numa.hpp"

namespace wasp {

namespace {

SsspOptions validated(SsspOptions options) {
  options.validate();
  return options;
}

}  // namespace

Solver::Solver(SsspOptions options)
    : options_(validated(std::move(options))),
      metrics_(options_.threads),
      team_(options_.threads) {
  if (!options_.wasp.topology) {
    options_.wasp.topology =
        std::make_shared<const NumaTopology>(NumaTopology::detect());
  }
}

SsspResult Solver::solve(const Graph& g, VertexId source) {
  // Re-entrancy guard. acquire pairs with the release in BusyGuard so the
  // winner of a later exchange sees everything the previous solve wrote.
  if (busy_.exchange(1, std::memory_order_acquire) != 0) {
    throw SolverBusyError(
        "Solver::solve: a solve is already in flight on this Solver; "
        "concurrent solves need one Solver each (see solver.hpp)");
  }
  struct BusyGuard {
    verify::atomic<std::uint32_t>& flag;
    // Release: publishes this solve's state to the next solve's acquire
    // exchange on busy_ (the reuse guard above).
    ~BusyGuard() { flag.store(0, std::memory_order_release); }
  } guard{busy_};
  RunContext ctx{team_, metrics_,
                 trace_ ? trace_.get() : options_.trace,
                 observer_ != nullptr ? observer_ : options_.observer,
                 options_.chaos};
  ctx.pool = &pool_;
  ctx.partitions = &partitions_;
  SsspResult result = detail::dispatch_sssp(g, source, options_, ctx);
  last_metrics_ = result.metrics;
  return result;
}

SsspResult Solver::solve(const Graph& g, VertexId source, Algorithm algo) {
  const Algorithm saved = options_.algo;
  options_.algo = algo;
  try {
    SsspResult result = solve(g, source);
    options_.algo = saved;
    return result;
  } catch (...) {
    options_.algo = saved;
    throw;
  }
}

obs::TraceRecorder& Solver::enable_trace(std::size_t events_per_thread) {
  if (!trace_) {
    trace_ = std::make_unique<obs::TraceRecorder>(options_.threads,
                                                  events_per_thread);
  }
  return *trace_;
}

}  // namespace wasp
