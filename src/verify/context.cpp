#include "verify/context.hpp"

#include <cstring>
#include <sstream>
#include <stdexcept>

#include "verify/scheduler.hpp"

namespace wasp::verify {

void scheduler_yield(int tid) {
  if (Scheduler* sched = Scheduler::current()) sched->yield(tid);
}

bool scheduler_fault(int tid, Fault f) {
  Scheduler* sched = Scheduler::current();
  return sched != nullptr && sched->fault(tid, f);
}

std::string site_str(const Site& s) {
  const char* base = s.file;
  for (const char* p = s.file; *p != '\0'; ++p)
    if (*p == '/' || *p == '\\') base = p + 1;
  std::ostringstream out;
  out << base << ":" << s.line;
  return out.str();
}

Session::Session(const Options& options)
    : options_(options),
      generation_(detail::g_generation.fetch_add(1, std::memory_order_acq_rel) +
                  1),
      threads_(static_cast<std::size_t>(
          options.threads > kMaxVerifyThreads ? kMaxVerifyThreads
                                              : options.threads)) {
  if (options.threads < 1 || options.threads > kMaxVerifyThreads)
    throw std::invalid_argument("verify::Session: bad thread count");
  for (int t = 0; t < options.threads; ++t) {
    threads_[static_cast<std::size_t>(t)].rng = Xoshiro256(
        hash_mix(options.seed + 0x5EEDULL * static_cast<std::uint64_t>(t + 1)));
  }
  Session* expected = nullptr;
  if (!detail::g_session.compare_exchange_strong(expected, this,
                                                 std::memory_order_acq_rel))
    throw std::logic_error("verify::Session: a session is already installed");
}

Session::~Session() {
  detail::g_session.store(nullptr, std::memory_order_release);
}

std::size_t Session::pick_index(int tid, std::size_t lo, std::size_t hi) {
  if (lo >= hi) return hi;
  auto& rng = threads_[static_cast<std::size_t>(tid)].rng;
  if (rng.next_below(65536) >= options_.stale_rate) return hi;
  return lo + static_cast<std::size_t>(
                  rng.next_below(static_cast<std::uint64_t>(hi - lo + 1)));
}

void Session::fence(int tid, std::memory_order order) {
  std::lock_guard<std::mutex> guard(mu_);
  ThreadState& st = threads_[static_cast<std::size_t>(tid)];
  const bool acq = order == std::memory_order_acquire ||
                   order == std::memory_order_acq_rel ||
                   order == std::memory_order_seq_cst;
  const bool rel = order == std::memory_order_release ||
                   order == std::memory_order_acq_rel ||
                   order == std::memory_order_seq_cst;
  // C11 29.8: an acquire fence turns the thread's earlier relaxed loads
  // into synchronization edges; a release fence arms later relaxed stores.
  if (acq) st.clock.join(st.pending_acquire);
  if (rel) {
    st.pending_release = st.clock;
    st.has_pending_release = true;
  }
  if (order == std::memory_order_seq_cst) {
    // Pure S-membership semantics: the fence takes a slot in S, nothing
    // more. Loads sequenced after it must not read values older than
    // stores ordered before it in S (seq_cst stores directly; earlier
    // plain-order stores via the writer's own later seq_cst fence — the
    // fence_log records which of this thread's stores this fence
    // publishes). A seq_cst fence does NOT join the global sc_clock: two
    // fences alone never create happens-before in C11 — synchronization
    // still needs an atomic mediator (store/load pair), which the
    // acq/rel pending-clock rules above provide. The value floors below
    // mean a post-fence load can be *forced fresh* while remaining
    // *unordered* — so a plain access guarded only by fence-fence value
    // visibility is correctly reported as a race.
    st.sc_fence_time = take_sc_slot(tid, nullptr);
    st.fence_log.emplace_back(st.sc_fence_time, st.clock.of(tid));
  }
}

std::uint64_t Session::take_sc_slot(int tid, const void* addr) {
  const std::uint64_t pos = ++sc_seq_;
  if (options_.sc_reorder_window > 0) {
    ThreadState& st = threads_[static_cast<std::size_t>(tid)];
    sc_events_.push_back(
        ScEvent{pos, tid, st.clock.of(tid), addr, st.clock});
    // Keep enough of the S suffix to cover any (published, horizon]
    // interval the window allows, with slack for events between the two.
    const auto cap =
        static_cast<std::size_t>(options_.sc_reorder_window) * 2 + 8;
    while (sc_events_.size() > cap) sc_events_.pop_front();
  }
  return pos;
}

bool Session::sc_before(std::uint64_t a, std::uint64_t b) const {
  // Effective position: (slot, 0) normally; a deferred slot sits just
  // after its new base, so (base, sub>0). Lexicographic compare.
  auto pos = [this](std::uint64_t s) -> std::pair<std::uint64_t, std::uint64_t> {
    const auto it = sc_deferred_.find(s);
    if (it == sc_deferred_.end()) return {s, 0};
    return it->second;
  };
  return pos(a) < pos(b);
}

void Session::sc_note_horizon(std::uint64_t h) {
  if (options_.sc_reorder_window <= 0) return;
  sc_used_.emplace(h, true);
}

bool Session::sc_floor_is_firm(int tid, const void* obj,
                               std::uint64_t published,
                               std::uint64_t horizon) {
  if (options_.sc_reorder_window <= 0) return true;
  if (horizon == ~std::uint64_t{0}) return true;  // seq_cst load: all of S
  if (horizon <= published) return true;
  if (horizon - published >
      static_cast<std::uint64_t>(options_.sc_reorder_window))
    return true;  // too far to slide within the window
  if (sc_events_.empty() || sc_events_.front().pos > published)
    return true;  // publisher evicted from the ring: refuse, stay sound
  const std::uint64_t front = sc_events_.front().pos;
  const ScEvent& pub = sc_events_[static_cast<std::size_t>(published - front)];
  // Sliding pub past the horizon is admissible only if no event in
  // (published, horizon] is ordered after it: happens-before must embed
  // into every valid S, and seq_cst accesses to the same objects must keep
  // their coherence order.
  for (std::uint64_t p = published + 1; p <= horizon; ++p) {
    if (p - front >= sc_events_.size()) return true;  // ring gap: refuse
    const ScEvent& e = sc_events_[static_cast<std::size_t>(p - front)];
    if (e.clock.knows(pub.tid, pub.epoch)) return true;   // hb pins S
    if (e.addr != nullptr && (e.addr == pub.addr || e.addr == obj))
      return true;  // same-object SC access pins coherence
  }
  // Commitment re-validation: dropping this floor re-seats the publisher
  // after the horizon, which must not contradict what the explored history
  // already relied on.
  //  * A horizon some load already ran under anchors S at its slot-order
  //    position: that load skipped floors assuming everything then-after
  //    it stays after it, so a publisher that is itself a used horizon
  //    cannot move.
  //  * A floor applied by the coin below pinned the publisher before that
  //    horizon; it may never slide past it afterwards.
  if (sc_used_.count(published) != 0) return true;
  const auto pin = sc_pinned_.find(published);
  if (pin != sc_pinned_.end() && horizon >= pin->second) return true;
  // Some valid S orders pub after the horizon. Seeded coin: explore (drop
  // the floor) with the session's stale probability, replayable by seed.
  // Either outcome is a commitment (see sc_before): record it.
  auto& rng = threads_[static_cast<std::size_t>(tid)].rng;
  if (rng.next_below(65536) >= options_.stale_rate) {
    if (pin == sc_pinned_.end() || horizon < pin->second)
      sc_pinned_[published] = horizon;
    return true;
  }
  sc_deferred_[published] = {horizon, ++sc_defer_sub_};
  return false;
}

std::uint32_t Session::plain_read_check_locked(int tid, const void* addr,
                                               PlainVar& var, Site site) {
  ThreadState& st = threads_[static_cast<std::size_t>(tid)];
  const std::uint32_t epoch = bump_epoch(tid);
  if (var.writer_tid >= 0 && var.writer_tid != tid &&
      !st.clock.knows(var.writer_tid, var.writer_epoch)) {
    std::ostringstream msg;
    msg << "data race on plain cell " << addr << ": write at "
        << site_str(var.writer_site) << " (t" << var.writer_tid << "#"
        << var.writer_epoch << ") is unordered with read at " << site_str(site)
        << " (t" << tid << "#" << epoch << ")";
    report_locked(msg.str());
  }
  var.read_epoch[static_cast<std::size_t>(tid)] = epoch;
  var.read_site[static_cast<std::size_t>(tid)] = site;
  return epoch;
}

std::uint32_t Session::plain_write_check_locked(int tid, const void* addr,
                                                PlainVar& var, Site site) {
  ThreadState& st = threads_[static_cast<std::size_t>(tid)];
  const std::uint32_t epoch = bump_epoch(tid);
  if (var.writer_tid >= 0 && var.writer_tid != tid &&
      !st.clock.knows(var.writer_tid, var.writer_epoch)) {
    std::ostringstream msg;
    msg << "data race on plain cell " << addr << ": write at "
        << site_str(var.writer_site) << " (t" << var.writer_tid << "#"
        << var.writer_epoch << ") is unordered with write at "
        << site_str(site) << " (t" << tid << "#" << epoch << ")";
    report_locked(msg.str());
  }
  for (int r = 0; r < options_.threads; ++r) {
    const std::uint32_t re = var.read_epoch[static_cast<std::size_t>(r)];
    if (r == tid || re == 0 || st.clock.knows(r, re)) continue;
    std::ostringstream msg;
    msg << "data race on plain cell " << addr << ": read at "
        << site_str(var.read_site[static_cast<std::size_t>(r)]) << " (t" << r
        << "#" << re << ") is unordered with write at " << site_str(site)
        << " (t" << tid << "#" << epoch << ")";
    report_locked(msg.str());
  }
  var.writer_tid = tid;
  var.writer_epoch = epoch;
  var.writer_site = site;
  var.read_epoch.fill(0);
  return epoch;
}

void Session::on_plain_read(int tid, const void* addr, Site site) {
  std::lock_guard<std::mutex> guard(mu_);
  plain_read_check_locked(tid, addr, plain_[addr], site);
}

void Session::on_plain_write(int tid, const void* addr, Site site) {
  std::lock_guard<std::mutex> guard(mu_);
  plain_write_check_locked(tid, addr, plain_[addr], site);
}

void Session::on_plain_retire(const void* base, std::size_t bytes) {
  std::lock_guard<std::mutex> guard(mu_);
  const char* lo = static_cast<const char*>(base);
  const char* hi = lo + bytes;
  for (auto it = plain_.begin(); it != plain_.end();) {
    const char* p = static_cast<const char*>(it->first);
    if (p >= lo && p < hi)
      it = plain_.erase(it);
    else
      ++it;
  }
}

std::uint64_t Session::on_plain_read_value(int tid, const void* addr,
                                           Site site,
                                           std::uint64_t fresh_bits) {
  std::lock_guard<std::mutex> guard(mu_);
  PlainVar& var = plain_[addr];
  plain_read_check_locked(tid, addr, var, site);
  if (var.hist.empty()) return fresh_bits;  // never recorded: live value
  ThreadState& st = threads_[static_cast<std::size_t>(tid)];
  const std::size_t n = var.hist.size();
  // Same admissibility as atomic loads (minus S — plain cells are not in
  // S): nothing older than the newest recorded store the reader's clock
  // knows, nothing older than what it read here before (coherence).
  std::uint64_t lo_abs = var.last_read[static_cast<std::size_t>(tid)];
  for (std::size_t i = n; i-- > 0;) {
    const PlainRec& rec = var.hist[i];
    if (rec.epoch == 0 || st.clock.knows(rec.tid, rec.epoch)) {
      lo_abs = std::max(lo_abs, var.base + i);
      break;
    }
  }
  const std::size_t lo =
      lo_abs > var.base ? static_cast<std::size_t>(lo_abs - var.base) : 0;
  const std::size_t idx = pick_index(tid, lo, n - 1);
  var.last_read[static_cast<std::size_t>(tid)] = var.base + idx;
  return var.hist[idx].bits;
}

void Session::on_plain_write_value(int tid, const void* addr, Site site,
                                   std::uint64_t old_bits,
                                   std::uint64_t new_bits) {
  std::lock_guard<std::mutex> guard(mu_);
  PlainVar& var = plain_[addr];
  const std::uint32_t epoch = plain_write_check_locked(tid, addr, var, site);
  if (var.hist.empty()) {
    // First contact: seed with the pre-write live value as an initial
    // store visible to every thread (epoch 0 = always admissible floor).
    var.hist.push_back(PlainRec{old_bits, 0, 0});
  }
  var.hist.push_back(PlainRec{new_bits, tid, epoch});
  var.last_read[static_cast<std::size_t>(tid)] =
      var.base + var.hist.size() - 1;
  const auto cap = static_cast<std::size_t>(options_.history_window);
  if (var.hist.size() > cap) {
    var.hist.erase(var.hist.begin());
    ++var.base;
  }
}

void Session::report(const std::string& message) {
  std::lock_guard<std::mutex> guard(mu_);
  report_locked(message);
}

void Session::report_locked(const std::string& message) {
  if (diagnostics_.size() >= options_.max_diagnostics) {
    ++dropped_diagnostics_;
    return;
  }
  for (const std::string& d : diagnostics_)
    if (d == message) return;  // dedup exact repeats
  diagnostics_.push_back(message);
}

bool Session::ok() const {
  std::lock_guard<std::mutex> guard(mu_);
  return diagnostics_.empty() && dropped_diagnostics_ == 0;
}

std::vector<std::string> Session::diagnostics() const {
  std::lock_guard<std::mutex> guard(mu_);
  return diagnostics_;
}

std::string Session::report_text() const {
  std::lock_guard<std::mutex> guard(mu_);
  std::ostringstream out;
  out << "verify session (seed=" << options_.seed
      << ", threads=" << options_.threads << "): ";
  if (diagnostics_.empty()) {
    out << "no violations\n";
    return out.str();
  }
  out << diagnostics_.size() + dropped_diagnostics_ << " violation(s)\n";
  for (const std::string& d : diagnostics_) out << "  * " << d << "\n";
  if (dropped_diagnostics_ > 0)
    out << "  (+" << dropped_diagnostics_ << " more dropped)\n";
  out << "replay: rerun with the same seed; stale-value choices are pure "
         "functions of (seed, tid), and so is an installed Scheduler's "
         "schedule, faults included\n";
  return out.str();
}

ScopedBind::ScopedBind(Session* session, int tid)
    : saved_session_(detail::tls_binding.session),
      saved_tid_(detail::tls_binding.tid) {
  if (session != nullptr) detail::tls_binding = {session, tid};
}

ScopedBind::~ScopedBind() {
  detail::tls_binding = {saved_session_, saved_tid_};
}

}  // namespace wasp::verify
