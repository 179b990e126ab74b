#include "common.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>

#include "graph/algorithms.hpp"
#include "sssp/dijkstra.hpp"
#include "support/numa.hpp"

namespace perfbench {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double seconds_since(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void Fingerprint::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

void Fingerprint::graph(const wasp::Graph& g) {
  value(g.num_vertices());
  value(g.num_edges());
  value(g.is_undirected());
  bytes(g.offsets_data(), g.offsets().size() * sizeof(wasp::EdgeIndex));
  bytes(g.edge_data(), g.num_edges() * sizeof(wasp::WEdge));
}

void Fingerprint::delta(const wasp::GraphDelta& d) {
  for (const wasp::EdgeUpdate& u : d.ops()) {
    value(static_cast<std::uint8_t>(u.op));
    value(u.src);
    value(u.dst);
    value(u.w);
  }
}

std::string Fingerprint::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double windowed_quantile(const std::vector<double>& v, double q) {
  constexpr std::size_t kWindows = 10;
  if (v.size() < kWindows) return quantile(v, q);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < kWindows; ++w)
    per_window.push_back(quantile(
        std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(w * v.size() / kWindows),
                            v.begin() + static_cast<std::ptrdiff_t>((w + 1) * v.size() / kWindows)),
        q));
  return median(per_window);
}

std::uint64_t counter(const wasp::obs::MetricsSnapshot& snap,
                      std::string_view name) {
  for (std::size_t i = 0; i < wasp::obs::kNumCounters; ++i) {
    const auto id = static_cast<wasp::obs::CounterId>(i);
    if (name == wasp::obs::counter_name(id)) return snap.counter(id);
  }
  static std::set<std::string, std::less<>> warned;
  if (warned.insert(std::string(name)).second)
    std::fprintf(stderr, "perfbench: no counter named '%.*s'; reading 0\n",
                 static_cast<int>(name.size()), name.data());
  return 0;
}

wasp::SsspOptions partitioned_options(wasp::SsspOptions base, int fragments) {
  const int per_node = std::max(1, base.threads / fragments);
  base.wasp.topology = std::make_shared<const wasp::NumaTopology>(
      wasp::NumaTopology::synthetic(1, fragments, per_node));
  base.wasp.partition.enabled = true;
  base.wasp.partition.num_fragments = fragments;
  return base;
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

void pin_client_to_cpu0() {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(0, &set);
  // Best effort, like ThreadTeam's own pinning.
  (void)sched_setaffinity(0, sizeof(set), &set);
}

void check_thread_plan(const ThreadPlan& plan) {
  const int cpus = nproc();
  if (plan.peak_runnable() > cpus) {
    throw std::runtime_error(
        "thread plan needs " + std::to_string(plan.peak_runnable()) +
        " runnable threads but nproc is " + std::to_string(cpus));
  }
}

int Tracer::begin(const char* name, int parent, std::uint64_t op) {
  if (!on_) return kNoParent;
  const auto now = Clock::now();
  return add(name, parent, op, now, now);
}

void Tracer::end(int id) {
  if (id == kNoParent) return;
  spans_[static_cast<std::size_t>(id)].end = Clock::now();
}

int Tracer::add(const char* name, int parent, std::uint64_t op,
                Clock::time_point start, Clock::time_point end) {
  spans_.push_back({name, parent, op, start, end});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  // Self time per span name: duration minus the time its children cover
  // (children of one span never overlap each other).
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent != kNoParent)
      child_ms[static_cast<std::size_t>(s.parent)] += ms_between(s.start, s.end);
  struct Sum {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Sum> summary;

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = ms_between(s.start, s.end);
    Sum& sum = summary[s.name];
    sum.count += 1;
    sum.total_ms += dur;
    sum.self_ms += dur - child_ms[i];
    char buf[320];
    for (const char ph : {'b', 'e'}) {
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"cat\":\"op\",\"ph\":\"%c\","
                    "\"id\":%llu,\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                    "\"args\":{\"span\":%zu,\"parent\":%d}}",
                    first ? "" : ",\n", s.name, ph,
                    static_cast<unsigned long long>(s.op),
                    us(ph == 'b' ? s.start : s.end), i, s.parent);
      out << buf;
      first = false;
    }
  }
  out << "\n],\"summary\":{";
  first = true;
  for (const auto& [name, sum] : summary) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"count\":%llu,\"total_ms\":%.6f,"
                  "\"self_ms\":%.6f}",
                  first ? "" : ",", name.c_str(),
                  static_cast<unsigned long long>(sum.count), sum.total_ms,
                  sum.self_ms);
    out << buf;
    first = false;
  }
  out << "}}\n";
}

void Report::fail(const std::string& why, bool incorrect) {
  failed += 1;
  if (incorrect) correct = false;
  if (failed <= 5) std::fprintf(stderr, "perfbench: failed op: %s\n", why.c_str());
}

void Report::note_plan(const ThreadPlan& plan) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"teams\":%d,\"concurrent_teams\":%d,\"threads_per_team\":%d,"
                "\"fleet\":%d,\"client_in_team\":%s,\"watchdogs\":%d,"
                "\"peak_runnable\":%d}",
                plan.teams, plan.concurrent_teams, plan.threads_per_team,
                plan.fleet, plan.client_in_team ? "true" : "false",
                plan.watchdogs, plan.peak_runnable());
  note("thread_plan", buf);
  note_count("nproc", static_cast<std::uint64_t>(nproc()));
}

void Report::print() const {
  std::string line = "{\"info\":{";
  bool first = true;
  for (const auto& [k, v] : info) {
    line += (first ? "\"" : ",\"") + k + "\":" + v;
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());

  line = std::string("{\"correct\":") + (correct ? "true" : "false") +
         ",\"attempted\":" + std::to_string(attempted) +
         ",\"failed\":" + std::to_string(failed) + ",\"metrics\":{";
  first = true;
  for (const auto& [name, vu] : metrics) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  first ? "" : ",", name.c_str(),
                  std::isfinite(vu.first) ? vu.first : 0.0, vu.second.c_str());
    line += buf;
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

std::vector<wasp::Distance> reference(const wasp::Graph& g,
                                      wasp::VertexId source, double* ms) {
  const auto t0 = Clock::now();
  wasp::SsspResult r = wasp::dijkstra(g, source);
  if (ms != nullptr) *ms = ms_between(t0, Clock::now());
  return std::move(r.dist);
}

std::vector<wasp::VertexId> pick_sources(const wasp::Graph& g, std::size_t k,
                                         std::uint64_t seed) {
  const wasp::ComponentInfo cc = wasp::connected_components(g);
  std::vector<wasp::VertexId> members;
  for (wasp::VertexId v = 0; v < g.num_vertices(); ++v)
    if (cc.label[v] == cc.largest && g.out_degree(v) > 0) members.push_back(v);
  if (members.size() < k)
    throw std::runtime_error("largest component has too few sources");
  Rng rng(seed);
  std::vector<wasp::VertexId> out;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t lo = i * members.size() / k;
    const std::size_t hi = (i + 1) * members.size() / k;
    out.push_back(members[lo + rng.below(hi - lo)]);
  }
  return out;
}

wasp::VertexId central_vertex(const wasp::Graph& g, wasp::VertexId start) {
  const auto farthest = [](const std::vector<wasp::Distance>& d) {
    wasp::VertexId best = 0;
    for (wasp::VertexId v = 0; v < d.size(); ++v)
      if (d[v] != wasp::kInfDist && (d[best] == wasp::kInfDist || d[v] > d[best]))
        best = v;
    return best;
  };
  const wasp::VertexId a = farthest(reference(g, start, nullptr));
  const std::vector<wasp::Distance> da = reference(g, a, nullptr);
  const std::vector<wasp::Distance> db = reference(g, farthest(da), nullptr);
  wasp::VertexId centre = start;
  for (wasp::VertexId v = 0; v < da.size(); ++v)
    if (da[v] != wasp::kInfDist &&
        std::max(da[v], db[v]) < std::max(da[centre], db[centre]))
      centre = v;
  return centre;
}

std::uint64_t closed_loop_ops(double seconds, double ops_per_second) {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(seconds * ops_per_second)));
}

}  // namespace perfbench
