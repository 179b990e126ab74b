#include "support/chaos.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace wasp::chaos {

const char* point_name(Point p) {
  switch (p) {
    case Point::kStealFail: return "steal-fail";
    case Point::kDelayCurrPublish: return "delay-curr-publish";
    case Point::kYieldBeforeCas: return "yield-before-cas";
    case Point::kYieldAfterCas: return "yield-after-cas";
    case Point::kChunkAllocFail: return "chunk-alloc-fail";
    case Point::kSpuriousWakeup: return "spurious-wakeup";
    case Point::kRemoteFlushDelay: return "remote-flush-delay";
    case Point::kRemoteDrainDelay: return "remote-drain-delay";
  }
  return "unknown";
}

Policy Policy::off() { return Policy{}; }

Policy Policy::uniform(std::uint16_t r) {
  Policy p;
  p.rate.fill(r);
  p.name = "uniform";
  return p;
}

Policy Policy::steal_storm() {
  Policy p;
  p.name = "steal-storm";
  p.rate[static_cast<std::size_t>(Point::kStealFail)] = 16384;        // 25%
  p.rate[static_cast<std::size_t>(Point::kYieldBeforeCas)] = 4096;    // ~6%
  p.rate[static_cast<std::size_t>(Point::kYieldAfterCas)] = 4096;
  return p;
}

Policy Policy::alloc_pressure() {
  Policy p;
  p.name = "alloc-pressure";
  p.rate[static_cast<std::size_t>(Point::kChunkAllocFail)] = 8192;    // 12.5%
  p.rate[static_cast<std::size_t>(Point::kYieldBeforeCas)] = 1024;
  return p;
}

Policy Policy::termination_fuzz() {
  Policy p;
  p.name = "termination-fuzz";
  p.rate[static_cast<std::size_t>(Point::kDelayCurrPublish)] = 8192;
  p.rate[static_cast<std::size_t>(Point::kSpuriousWakeup)] = 16384;
  p.rate[static_cast<std::size_t>(Point::kStealFail)] = 4096;
  // Remote-queue delays stretch the publish->drain window the partitioned
  // termination extension must cover (in-flight accounting, docs/NUMA.md).
  p.rate[static_cast<std::size_t>(Point::kRemoteFlushDelay)] = 8192;
  p.rate[static_cast<std::size_t>(Point::kRemoteDrainDelay)] = 8192;
  return p;
}

std::vector<Policy> standard_policies() {
  return {Policy::off(), Policy::uniform(2048), Policy::steal_storm(),
          Policy::alloc_pressure(), Policy::termination_fuzz()};
}

Engine::Engine(std::uint64_t seed, const Policy& policy, int max_threads,
               bool record)
    : seed_(seed), policy_(policy), record_(record),
      threads_(static_cast<std::size_t>(std::max(max_threads, 1))) {
  // Each thread's stream depends only on (seed, tid): replaying the same
  // seed on the same logical thread reproduces the same decisions.
  for (std::size_t t = 0; t < threads_.size(); ++t)
    threads_[t].value.rng =
        Xoshiro256(hash_mix(seed ^ (0xC4A05ULL + (t << 17))));
}

bool Engine::fire(int tid, Point p) {
  if (tid < 0 || static_cast<std::size_t>(tid) >= threads_.size())
    throw std::out_of_range("chaos::Engine::fire: tid out of range");
  PerThread& me = threads_[static_cast<std::size_t>(tid)].value;
  const std::uint32_t seq = me.seq++;
  const std::uint16_t r = policy_.rate_of(p);
  if (r == 0) return false;  // disabled points consume no draw, so the
                             // off() policy costs one counter bump only
  const bool fired = (me.rng.next() & 0xFFFFu) < r;
  if (fired && record_) me.events.push_back(Event{tid, seq, p});
  return fired;
}

std::uint64_t Engine::fired_count() const {
  std::uint64_t total = 0;
  for (const auto& t : threads_) total += t.value.events.size();
  return total;
}

std::vector<Event> Engine::trace() const {
  std::vector<Event> all;
  for (const auto& t : threads_)
    all.insert(all.end(), t.value.events.begin(), t.value.events.end());
  std::sort(all.begin(), all.end(), [](const Event& a, const Event& b) {
    return a.tid != b.tid ? a.tid < b.tid : a.seq < b.seq;
  });
  return all;
}

std::string format_trace(const std::vector<Event>& events) {
  std::ostringstream os;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i > 0) os << ' ';
    os << 't' << events[i].tid << '#' << events[i].seq << ':'
       << point_name(events[i].point);
  }
  return os.str();
}

std::string failure_report(const Engine& engine, const std::string& what) {
  std::ostringstream os;
  os << "chaos failure: " << what << "\n"
     << "  seed=" << engine.seed() << " policy=" << engine.policy().name
     << " threads=" << engine.max_threads() << "\n"
     << "  injected (" << engine.fired_count()
     << " events): " << format_trace(engine.trace()) << "\n"
     << "  reproduce: construct chaos::Engine(" << engine.seed()
     << ", Policy::" << engine.policy().name << ", " << engine.max_threads()
     << ") and re-run the same configuration; per-thread injection"
        " sequences are a pure function of (seed, tid).";
  return os.str();
}

}  // namespace wasp::chaos
