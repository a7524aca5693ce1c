#include "obs/flight_recorder.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>

#include "hipsim/chk_point.h"
#include "obs/json_writer.h"
#include "obs/signal_flush.h"

namespace xbfs::obs {

namespace {

double steady_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void copy_trunc(char* dst, std::size_t cap, std::string_view src) {
  const std::size_t n = std::min(src.size(), cap - 1);
  // An empty view may carry a null data(), which memcpy must not be given.
  if (n > 0) std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

}  // namespace

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder g;
  return g;
}

FlightRecorder::FlightRecorder() : wall_epoch_us_(steady_us()) {
  std::size_t cap = 4096;
  if (const char* env = std::getenv("XBFS_FLIGHT_EVENTS")) {
    const long v = std::atol(env);
    if (v > 0) cap = static_cast<std::size_t>(v);
  }
  if (const char* env = std::getenv("XBFS_FLIGHT"); env && *env) {
    enable(env, cap);
  } else {
    // Keep a ring allocated so programmatic enable("") still records.
    slots_ = std::vector<Slot>(round_up_pow2(cap));
    mask_ = slots_.size() - 1;
  }
}

FlightRecorder::~FlightRecorder() {
  // Leave a post-mortem behind even on clean exit: the common failure
  // mode for a flight recorder is discovering after the fact that nothing
  // was written.
  if (!enabled() || recorded() == 0) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    last_dump_ms_ = -1.0;  // the exit dump is never rate-limited away
  }
  trigger("exit");
}

void FlightRecorder::enable(std::string path, std::size_t capacity) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!path.empty()) path_ = std::move(path);
    if (capacity != 0 || slots_.empty()) {
      const std::size_t cap = round_up_pow2(capacity ? capacity : 4096);
      if (cap != slots_.size()) {
        slots_ = std::vector<Slot>(cap);
        mask_ = cap - 1;
        head_.store(0, std::memory_order_relaxed);
      }
    }
  }
  enabled_.store(true, std::memory_order_relaxed);
  install_signal_flush();
}

double FlightRecorder::wall_now_us() const {
  return steady_us() - wall_epoch_us_;
}

void FlightRecorder::record(const char* cat, const char* name,
                            std::string_view detail, std::uint64_t a,
                            std::uint64_t b, std::uint64_t c) {
  if (!enabled() || slots_.empty()) return;
  // SchedCheck yield points (sim::chk_point) bracket every phase of the
  // seqlock write: claim, invalidate, payload, publish.  The protocol is
  // lock-free, so a writer may legally be suspended at any of them — the
  // model checker uses exactly that to drive readers through the
  // mid-overwrite windows the ready-word re-check must survive.
  sim::chk_point("flight.record.claim");
  const std::uint64_t seq = head_.fetch_add(1, std::memory_order_relaxed) + 1;
  Slot& s = slots_[(seq - 1) & mask_];
  FlightEvent ev;
  ev.seq = seq;
  ev.wall_us = wall_now_us();
  ev.a = a;
  ev.b = b;
  ev.c = c;
  copy_trunc(ev.cat, sizeof(ev.cat), cat ? cat : "");
  copy_trunc(ev.name, sizeof(ev.name), name ? name : "");
  copy_trunc(ev.detail, sizeof(ev.detail), detail);
  std::uint64_t words[kEventWords];
  std::memcpy(words, &ev, sizeof(ev));
  // Invalidate before writing so a concurrent reader can't accept a
  // half-overwritten payload (the fence keeps the payload stores after
  // it); release on the final store publishes it.
  sim::chk_point("flight.record.invalidate", seq & mask_);
  s.ready.store(0, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  sim::chk_point("flight.record.payload", seq & mask_);
  for (std::size_t i = 0; i < kEventWords; ++i) {
    s.words[i].store(words[i], std::memory_order_relaxed);
  }
  sim::chk_point("flight.record.publish", seq & mask_);
  s.ready.store(seq, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::vector<FlightEvent> out;
  if (slots_.empty()) return out;
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  if (head == 0) return out;
  const std::uint64_t cap = slots_.size();
  const std::uint64_t lo = head > cap ? head - cap + 1 : 1;
  out.reserve(static_cast<std::size_t>(head - lo + 1));
  for (std::uint64_t seq = lo; seq <= head; ++seq) {
    const Slot& s = slots_[(seq - 1) & mask_];
    sim::chk_point("flight.snapshot.check", (seq - 1) & mask_);
    if (s.ready.load(std::memory_order_acquire) != seq) continue;
    sim::chk_point("flight.snapshot.copy", (seq - 1) & mask_);
    std::uint64_t words[kEventWords];
    for (std::size_t i = 0; i < kEventWords; ++i) {
      words[i] = s.words[i].load(std::memory_order_relaxed);
    }
    // Seqlock re-check: if a lapping writer touched the slot while we
    // copied, the payload may be torn — discard it.
    std::atomic_thread_fence(std::memory_order_acquire);
    sim::chk_point("flight.snapshot.recheck", (seq - 1) & mask_);
    if (s.ready.load(std::memory_order_relaxed) != seq) continue;
    FlightEvent ev;
    std::memcpy(&ev, words, sizeof(ev));
    if (ev.seq != seq) continue;  // two lapping writers interleaved
    out.push_back(ev);
  }
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& x, const FlightEvent& y) {
              return x.seq < y.seq;
            });
  return out;
}

std::uint64_t FlightRecorder::dropped() const {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  const std::uint64_t cap = slots_.size();
  return head > cap ? head - cap : 0;
}

void FlightRecorder::set_min_dump_gap_ms(double ms) {
  std::lock_guard<std::mutex> lk(mu_);
  min_dump_gap_ms_ = ms;
}

std::uint64_t FlightRecorder::register_context(
    std::string key, std::function<std::string()> fn) {
  std::lock_guard<std::mutex> lk(mu_);
  const std::uint64_t token = next_ctx_token_++;
  contexts_.emplace(token, std::make_pair(std::move(key), std::move(fn)));
  return token;
}

void FlightRecorder::unregister_context(std::uint64_t token) {
  std::lock_guard<std::mutex> lk(mu_);
  contexts_.erase(token);
}

void FlightRecorder::dump(std::ostream& os, const std::string& reason) const {
  const auto events = snapshot();
  // Sample providers outside the event copy but under the registry lock;
  // providers take their own component locks, which must not be held
  // while a component calls unregister_context (they are not).
  std::vector<std::pair<std::string, std::string>> ctx;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ctx.reserve(contexts_.size());
    for (const auto& [token, kv] : contexts_) {
      (void)token;
      std::string v;
      try {
        v = kv.second();
      } catch (...) {
        v.clear();
      }
      ctx.emplace_back(kv.first, std::move(v));
    }
  }

  JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "xbfs-flight");
  w.kv("version", std::uint64_t{1});
  w.kv("reason", reason);
  w.kv("wall_us", wall_now_us());
  w.kv("recorded", recorded());
  w.kv("dropped", dropped());
  w.kv("capacity", static_cast<std::uint64_t>(slots_.size()));
  w.key("events").begin_array();
  for (const auto& e : events) {
    w.begin_object();
    w.kv("seq", e.seq);
    w.kv("wall_us", e.wall_us);
    w.kv("cat", std::string_view(e.cat));
    w.kv("name", std::string_view(e.name));
    if (e.detail[0] != '\0') w.kv("detail", std::string_view(e.detail));
    w.kv("a", e.a);
    w.kv("b", e.b);
    if (e.c != 0) w.kv("c", e.c);
    w.end_object();
  }
  w.end_array();
  w.key("context").begin_object();
  for (const auto& [k, v] : ctx) {
    w.key(k);
    if (v.empty())
      w.raw("null");
    else
      w.raw(v);
  }
  w.end_object();
  w.end_object();
  os << '\n';
}

bool FlightRecorder::trigger(const char* reason) {
  if (!enabled()) return false;
  std::string path;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (path_.empty()) return false;
    const double now_ms = wall_now_us() / 1000.0;
    if (last_dump_ms_ >= 0.0 && now_ms - last_dump_ms_ < min_dump_gap_ms_)
      return false;
    last_dump_ms_ = now_ms;
    path = path_;
  }
  record("flight", "dump", reason ? reason : "");
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  dump(os, reason ? reason : "");
  dumps_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void FlightRecorder::clear() {
  head_.store(0, std::memory_order_relaxed);
  for (auto& s : slots_) s.ready.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  last_dump_ms_ = -1.0;
}

}  // namespace xbfs::obs
