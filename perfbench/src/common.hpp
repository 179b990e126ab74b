// Shared pieces of the layered benchmark: options, the run report, the
// client-side span tracer, input fingerprints, percentile helpers, counter
// lookup by name, the thread-plan guard and the Dijkstra exactness check.
//
// Everything here talks to the library only through the front doors the
// roadmap keeps: suite::make, Solver, QueryService + QueryRequest,
// VersionedGraph + GraphDelta, and MetricsSnapshot counters read by name.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "graph/delta.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "sssp/common.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two steady-clock points.
double ms_between(Clock::time_point a, Clock::time_point b);
double seconds_since(Clock::time_point a);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< Chrome trace path (traced runs only)
};

/// Deterministic input generator (splitmix64): the benchmark's inputs must
/// not move when the library's own PRNG changes.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

/// FNV-1a over the generated inputs; equal seeds must give equal digests.
class Fingerprint {
 public:
  void bytes(const void* data, std::size_t n);
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof(v));
  }
  void graph(const wasp::Graph& g);
  void delta(const wasp::GraphDelta& d);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Linear-interpolation quantile (numpy's default) of an unsorted sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The median, over ten consecutive windows of `v` (samples in op order),
/// of each window's q-quantile. Host noise that slows fewer than half the
/// windows leaves it unchanged; every gated latency is reported this way.
double windowed_quantile(const std::vector<double>& v, double q);

/// A counter of `snap` looked up by its registry name ("relaxations", ...).
/// Unknown names read as 0 and are reported once on stderr.
std::uint64_t counter(const wasp::obs::MetricsSnapshot& snap,
                      std::string_view name);

/// The one place the benchmark names WaspConfig::partition: options for a
/// partitioned Wasp Solver over a synthetic topology.
wasp::SsspOptions partitioned_options(wasp::SsspOptions base, int fragments);

/// Threads the host may run at once (the affinity mask, as nproc counts).
int nproc();

/// Pins the calling (client) thread to CPU 0. A ThreadTeam pins its worker
/// t >= 1 to CPU t and leaves worker 0, the calling thread, unpinned; an
/// unpinned client can share a CPU with a pinned worker and stall the
/// team. Threads the client creates afterwards inherit the mask, so call
/// this once the service threads exist (team workers re-pin themselves).
void pin_client_to_cpu0();

/// Who runs on which threads in one workload. The guard refuses a plan
/// whose peak of computing threads exceeds nproc. Service watchdogs are
/// listed but not counted: they wake every 50 ms for a short scan.
struct ThreadPlan {
  int teams = 0;             ///< thread teams that exist
  int concurrent_teams = 0;  ///< teams that may run at the same moment
  int threads_per_team = 0;
  int fleet = 0;             ///< QueryService solver workers (all services)
  bool client_in_team = false;  ///< the client computes only as a worker 0
  int watchdogs = 0;

  [[nodiscard]] int peak_runnable() const {
    return concurrent_teams * threads_per_team + (client_in_team ? 0 : 1);
  }
};
void check_thread_plan(const ThreadPlan& plan);

/// Client-side spans around each call into a layer, kept in memory and
/// written once as Chrome trace JSON. Recording is off unless enabled.
class Tracer {
 public:
  static constexpr int kNoParent = -1;

  void enable(bool on) { on_ = on; }
  [[nodiscard]] bool on() const { return on_; }
  /// Starts a span; returns its id (or kNoParent when tracing is off).
  int begin(const char* name, int parent, std::uint64_t op);
  void end(int id);
  /// Records a finished span with explicit times, whether or not the
  /// tracer is on (the caller decides).
  int add(const char* name, int parent, std::uint64_t op,
          Clock::time_point start, Clock::time_point end);
  /// Writes the spans (async nestable events, one id per op) plus a
  /// per-name summary with self time = span time minus child-span time.
  void write_chrome(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int parent;
    std::uint64_t op;
    Clock::time_point start;
    Clock::time_point end;
  };
  bool on_ = false;
  std::vector<Span> spans_;
  Clock::time_point origin_ = Clock::now();
};

/// RAII span; a no-op when the tracer is off.
class Span {
 public:
  Span(Tracer& t, const char* name, int parent = Tracer::kNoParent,
       std::uint64_t op = 0)
      : t_(t), id_(t.begin(name, parent, op)) {}
  ~Span() { t_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

/// The run's result: the final result line plus the run description
/// (seed, fingerprint, sizes, thread plan) printed on the line before it.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Description entries, each already a JSON value.
  std::map<std::string, std::string> info;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void note(const std::string& key, const std::string& json_value) {
    info[key] = json_value;
  }
  void note_text(const std::string& key, const std::string& text) {
    info[key] = '"' + text + '"';
  }
  void note_count(const std::string& key, std::uint64_t v) {
    info[key] = std::to_string(v);
  }
  /// Counts a failed op; `incorrect` marks a wrong answer (not just a
  /// refused or expired one). The first few reasons go to stderr.
  void fail(const std::string& why, bool incorrect);
  void note_plan(const ThreadPlan& plan);
  void print() const;
};

/// Dijkstra distances from `source` (the exactness reference), and its time.
std::vector<wasp::Distance> reference(const wasp::Graph& g,
                                      wasp::VertexId source, double* ms);

/// Sources in the largest weakly connected component, seeded: one from each
/// of k equal slices of that component's vertices in id order, so every
/// seed spreads them over the whole graph and the cost of a seed's source
/// set varies less between seeds.
std::vector<wasp::VertexId> pick_sources(const wasp::Graph& g, std::size_t k,
                                         std::uint64_t seed);

/// An approximate centre of the component of `start`: with a and b the ends
/// of a double sweep (a farthest from `start`, b farthest from a), the
/// vertex that minimises max(d(a, v), d(b, v)). A source placed there has
/// about the same eccentricity on every seed.
wasp::VertexId central_vertex(const wasp::Graph& g, wasp::VertexId start);

/// Number of ops a closed loop runs: a nominal rate times --seconds, so the
/// count (and the input fingerprint) depends only on the arguments.
std::uint64_t closed_loop_ops(double seconds, double ops_per_second);

/// Workload entry points (one file each).
void run_road_solve(const Options& opt, Report& rep);
void run_social_service(const Options& opt, Report& rep);
void run_live_traffic(const Options& opt, Report& rep);

}  // namespace perfbench
