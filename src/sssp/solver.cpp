#include "sssp/solver.hpp"

#include <sstream>
#include <utility>

#include "sssp/delta_stepping.hpp"
#include "sssp/dijkstra.hpp"
#include "sssp/incremental.hpp"
#include "sssp/julienne.hpp"
#include "sssp/mq_dijkstra.hpp"
#include "sssp/obim.hpp"
#include "sssp/stepping.hpp"
#include "sssp/wasp.hpp"
#include "support/errors.hpp"
#include "support/numa.hpp"

namespace wasp {

namespace {

SsspOptions validated(SsspOptions options) {
  options.validate();
  return options;
}

/// Rejects inputs no algorithm can run on, with typed errors, before any
/// worker thread is involved. O(1): Graph::from_csr already validated the
/// CSR arrays at construction, and a VersionedGraph keeps its vertex count.
void check_inputs(VertexId num_vertices, VertexId source) {
  if (num_vertices == 0)
    throw InvalidGraphError("Solver::solve: graph has no vertices");
  if (source >= num_vertices) {
    std::ostringstream os;
    os << "Solver::solve: source " << source << " out of range [0, "
       << num_vertices << ")";
    throw InvalidSourceError(os.str());
  }
}

/// A Solver's re-entrancy guard, held by every solve() of either kind:
/// takes the busy flag or throws SolverBusyError, and releases it when the
/// solve returns or throws.
struct BusyGuard {
  explicit BusyGuard(verify::atomic<std::uint32_t>& busy) : flag(busy) {
    // acquire pairs with the release below so the winner of a later
    // exchange sees everything the previous solve wrote.
    if (flag.exchange(1, std::memory_order_acquire) != 0) {
      throw SolverBusyError(
          "Solver::solve: a solve is already in flight on this Solver; "
          "concurrent solves need one Solver each (see solver.hpp)");
    }
  }
  // Release: publishes this solve's state to the next solve's acquire
  // exchange above.
  ~BusyGuard() { flag.store(0, std::memory_order_release); }
  verify::atomic<std::uint32_t>& flag;
};

}  // namespace

void Solver::throw_cancelled(const CancelToken& token) {
  const CancelReason reason = token.reason();
  std::ostringstream os;
  os << "Solver::solve: solve cancelled (" << to_string(reason) << ")";
  throw SolveCancelledError(os.str(), reason);
}

SsspResult Solver::dispatch(const Graph& g, VertexId source) {
  const SsspOptions& options = options_;
  options.validate();
  check_inputs(g.num_vertices(), source);
  RunContext ctx{team_, metrics_, options.trace, options.observer};
  ctx.partitions = &partitions_;
  ctx.metrics.reset();
  ctx.cancel = options.cancel;
  // Pre-fired token (or an already-expired deadline): reject before any
  // worker or distance array is touched.
  if (ctx.cancel != nullptr && ctx.cancel->poll()) throw_cancelled(*ctx.cancel);
  if (options.algo == Algorithm::kDijkstra) {
    // The sequential reference keeps its own plain distance vector. It is
    // not cancellable mid-run: no worker polls, so the token was only
    // checked above.
    return dijkstra(g, source);
  }
  // Every run relaxes in a buffer filled here, a free one when the pool has
  // any, and returns it. A partitioned Wasp run's fragments view sub-ranges
  // of it.
  std::unique_ptr<AnswerBuffer> buffer =
      buffers_->take(BufferPool::kNoGeneration);
  if (buffer == nullptr) buffer = std::make_unique<AnswerBuffer>();
  buffer->dist.assign(g.num_vertices(), kInfDist);
  AtomicDistances dist(buffer->dist);
  ctx.dist = &dist;
  ctx.metrics.shard(0).inc(obs::CounterId::kEpochSweeps);
  SsspResult result = [&]() -> SsspResult {
  switch (options.algo) {
    case Algorithm::kDijkstra:
      return dijkstra(g, source);
    case Algorithm::kDeltaStepping:
      return delta_stepping(g, source, options.delta, ctx);
    case Algorithm::kJulienne:
      return julienne_sssp(g, source, options.delta, ctx);
    case Algorithm::kDeltaStar:
      return stepping_sssp(g, source, SteppingKind::kDeltaStar, options.delta,
                           options.stepping.rho, ctx);
    case Algorithm::kRhoStepping:
      return stepping_sssp(g, source, SteppingKind::kRho, options.delta,
                           options.stepping.rho, ctx);
    case Algorithm::kMqDijkstra:
      return mq_dijkstra(g, source, options.mq.c, options.mq.stickiness,
                         options.mq.buffer, options.seed, ctx);
    case Algorithm::kWasp:
      return wasp_sssp(g, source, options.delta, options.wasp, ctx);
    case Algorithm::kObim:
      return obim_sssp(g, source, options.delta, options.obim.chunk_size, ctx);
  }
  return dijkstra(g, source);  // unreachable
  }();
  // The team has joined by now, so every worker's polls happened-before
  // this check. A fired token leaves a partial relaxation in the buffer,
  // freed here, so the Solver stays reusable.
  if (ctx.cancel != nullptr && ctx.cancel->cancel_requested())
    throw_cancelled(*ctx.cancel);
  // The join orders every relaxation before the caller's plain reads.
  result.dist = std::move(buffer->dist);
  return result;
}

void Solver::record_state_bytes(obs::MetricsSnapshot& report) const {
  const std::uint64_t bytes =
      buffers_->bytes() + (repair_ != nullptr ? repair_->scratch_bytes() : 0);
  report.gauges[static_cast<std::size_t>(obs::GaugeId::kSolverStateBytes)] =
      bytes;
}

Solver::Solver(SsspOptions options)
    : options_(validated(std::move(options))),
      metrics_(options_.threads),
      buffers_(std::make_shared<BufferPool>()),
      team_(options_.threads) {
  if (!options_.wasp.topology) {
    options_.wasp.topology =
        std::make_shared<const NumaTopology>(NumaTopology::detect());
  }
}

Solver::~Solver() = default;

SsspResult Solver::solve(const Graph& g, VertexId source) {
  const BusyGuard guard(busy_);
  SsspResult result = dispatch(g, source);
  record_state_bytes(result.metrics);
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

Answer Solver::solve(VersionedGraph& vg, VertexId source, const Answer& from,
                     std::uint64_t from_version) {
  const BusyGuard guard(busy_);
  check_inputs(vg.num_vertices(), source);
  if (from_version > vg.version()) {
    std::ostringstream os;
    os << "Solver::solve: from_version " << from_version
       << " is above the graph's version " << vg.version();
    throw InvalidOptionsError(os.str());
  }
  if (!from.empty() && from.size() != vg.num_vertices()) {
    std::ostringstream os;
    os << "Solver::solve: the answer has " << from.size()
       << " entries for a graph of " << vg.num_vertices() << " vertices";
    throw InvalidOptionsError(os.str());
  }
  if (repair_ == nullptr) repair_ = std::make_unique<Repair>(buffers_);
  // graph() folds any staged structural overlay back into the flat CSR the
  // engine consumes.
  const Graph& g = vg.graph();
  Answer answer = [&] {
    if (from.empty()) return repair_->full_solve(*this, g, source);
    if (from_version == vg.version()) {
      // Nothing changed since `from`: it is still the answer.
      last_metrics_ = obs::MetricsSnapshot{};
      return from;
    }
    const VersionedGraph::JournalView jv = vg.journal_since(from_version);
    if (!jv.ok)  // the journal was trimmed past from_version
      return repair_->full_solve(*this, g, source);
    return repair_->repair(*this, vg, g, source, from, from_version,
                           jv.effects);
  }();
  record_state_bytes(last_metrics_);
  return answer;
}

}  // namespace wasp
