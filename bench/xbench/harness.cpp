#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "obs/json_writer.h"
#include "obs/metrics.h"

namespace xbench {

namespace {

const auto kProcessStart = std::chrono::steady_clock::now();

/// Live threads of this process (/proc/self/status).
unsigned live_threads() {
  std::ifstream is("/proc/self/status");
  std::string key;
  while (is >> key) {
    if (key == "Threads:") {
      unsigned n = 0;
      is >> n;
      return n;
    }
  }
  return 0;
}

std::string pct_name(double q) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "p%g", q * 100.0);
  return buf;
}

}  // namespace

std::string row_json(const Row& r) {
  std::ostringstream os;
  xbfs::obs::JsonWriter w(os);
  w.begin_object();
  w.kv("metric", r.metric);
  // Every digit of the double, not JsonWriter's nine significant ones.
  char value[32];
  std::snprintf(value, sizeof(value), "%.17g", r.value);
  w.key("value").raw(std::isfinite(r.value) ? value : "null");
  w.kv("unit", r.unit);
  w.kv("clock", r.clock);
  w.kv("layer", r.layer);
  w.kv("kind", r.kind == Kind::E2e ? "e2e" : "layer");
  w.kv("n", static_cast<std::uint64_t>(r.n));
  w.kv("stat", r.stat);
  w.end_object();
  return os.str();
}

void Report::e2e(std::string metric, double value, std::string unit,
                 std::string clock, std::string layer, std::size_t n,
                 std::string stat) {
  rows_.push_back({std::move(metric), value, std::move(unit), std::move(clock),
                   std::move(layer), Kind::E2e, n, std::move(stat)});
}

void Report::layer(std::string metric, double value, std::string unit,
                   std::string clock, std::string layer, std::size_t n,
                   std::string stat) {
  rows_.push_back({std::move(metric), value, std::move(unit), std::move(clock),
                   std::move(layer), Kind::Layer, n, std::move(stat)});
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  ++check_failures_;
  std::fprintf(stderr, "xbench: correctness check failed: %s\n", what.c_str());
}

void Report::ops(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::absorb(const Report& other, Kind kind) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  check_failures_ += other.check_failures_;
  for (const Row& r : other.rows_) {
    if (r.kind == kind) rows_.push_back(r);
  }
}

Recorder& Recorder::global() {
  static Recorder r;
  return r;
}

int Recorder::add(const std::string& name, double start_s, double end_s,
                  int parent, std::uint64_t query) {
  if (!on_) return -1;
  spans_.push_back({name, start_s, end_s, parent, query});
  return static_cast<int>(spans_.size()) - 1;
}

bool Recorder::write(const std::string& path, const std::string& workload,
                     std::uint64_t seed, const std::vector<Row>& rows) const {
  std::ofstream os(path);
  if (!os) return false;
  xbfs::obs::JsonWriter w(os);
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.kv("name", s.name);
    w.kv("ph", "X");
    w.kv("pid", 1);
    // Query-scoped spans get their own lane so overlapping queries stay
    // readable; everything else sits on the bench's main lane.
    w.kv("tid", s.query == 0 ? std::uint64_t{0} : s.query);
    w.kv("ts", s.start_s * 1e6);
    w.kv("dur", std::max(0.0, s.end_s - s.start_s) * 1e6);
    w.key("args").begin_object();
    w.kv("id", static_cast<std::uint64_t>(i));
    w.kv("parent", s.parent);
    w.kv("query", s.query);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.kv("displayTimeUnit", "ms");
  w.key("xbench").begin_object();
  w.kv("workload", workload);
  w.kv("seed", seed);
  w.key("rows").begin_array();
  for (const Row& r : rows) {
    if (r.kind == Kind::Layer) w.raw(row_json(r));
  }
  w.end_array();
  w.end_object();
  w.end_object();
  os << '\n';
  return static_cast<bool>(os);
}

ScopedSpan::ScopedSpan(const char* name, int parent, std::uint64_t query)
    : name_(name), parent_(parent), query_(query),
      start_s_(Recorder::global().enabled() ? now_s() : 0.0) {}

ScopedSpan::~ScopedSpan() {
  Recorder& rec = Recorder::global();
  if (rec.enabled()) rec.add(name_, start_s_, now_s(), parent_, query_);
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

void sleep_until_s(double t) {
  const double d = t - now_s();
  if (d > 0) std::this_thread::sleep_for(std::chrono::duration<double>(d));
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double steady_rate(std::vector<double> done_s) {
  constexpr std::size_t kWindows = 8;
  if (done_s.size() < 2 * kWindows) return 0.0;
  std::sort(done_s.begin(), done_s.end());
  const std::size_t lo = done_s.size() / 10;
  const std::size_t per = (done_s.size() - 2 * lo) / kWindows;
  std::vector<double> rates;
  for (std::size_t w = 0; w < kWindows; ++w) {
    const double span = done_s[lo + (w + 1) * per] - done_s[lo + w * per];
    if (span > 0.0) rates.push_back(static_cast<double>(per) / span);
  }
  return median(rates);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void ThreadWatch::sample() { peak_ = std::max(peak_, live_threads()); }

void report_setup(Ctx& ctx, const std::vector<SetupTimes>& runs) {
  std::vector<double> total, graph, load;
  for (const SetupTimes& t : runs) {
    total.push_back(t.graph_s + t.load_s);
    graph.push_back(t.graph_s);
    load.push_back(t.load_s);
  }
  Report& rep = ctx.report;
  rep.e2e("setup_s", median(total), "s", "wall", "graph", runs.size(),
          "median");
  rep.layer("setup.graph_s", median(graph), "s", "wall", "graph", runs.size(),
            "median");
  rep.layer("setup.load_s", median(load), "s", "wall", "graph", runs.size(),
            "median");
}

void report_wall(Ctx& ctx, const std::vector<double>& ms, double tail_q,
                 double ops_per_s, const std::string& layer) {
  const double beyond = static_cast<double>(ms.size()) * (1.0 - tail_q);
  if (beyond < 10.0 && !ctx.opt.smoke) {
    std::fprintf(stderr,
                 "xbench: warning: %zu samples leave %.1f beyond %s (< 10)\n",
                 ms.size(), beyond, pct_name(tail_q).c_str());
  }
  Report& rep = ctx.report;
  rep.layer("p50_ms", median(ms), "ms", "wall", layer, ms.size(), "p50");
  rep.layer("tail_ms", percentile(ms, tail_q), "ms", "wall", layer,
            ms.size(), pct_name(tail_q));
  rep.layer("ops_per_s", ops_per_s, "1/s", "wall", layer, ms.size(), "rate");
}

void set_tracing(bool on) {
  Recorder::global().enable(on);
  xbfs::obs::MetricsRegistry& mx = xbfs::obs::MetricsRegistry::global();
  if (on) {
    mx.reset();
    mx.enable();
  } else {
    mx.disable();
  }
}

}  // namespace xbench
