#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <ostream>

#include "obs/json_writer.h"
#include "obs/signal_flush.h"

namespace xbfs::obs {

// Quarter-octave buckets (ratio 2^0.25 between edges) spanning 2^-32 ..
// 2^32: 4 buckets per power of two over 64 octaves, plus one underflow
// bucket for v <= 2^-32 (index 0, catches zeros/negatives too).
namespace {
constexpr int kBucketsPerOctave = 4;
constexpr int kMinExp = -32;  // v <= 2^kMinExp lands in bucket 0
constexpr int kMaxExp = 32;
constexpr std::size_t kNumBuckets =
    static_cast<std::size_t>((kMaxExp - kMinExp) * kBucketsPerOctave) + 2;
}  // namespace

std::size_t Histogram::bucket_of(double v) {
  if (!(v > 0.0) || !std::isfinite(v)) return 0;
  const double pos = (std::log2(v) - kMinExp) * kBucketsPerOctave;
  if (pos <= 0.0) return 0;
  const std::size_t idx = static_cast<std::size_t>(pos) + 1;
  return std::min(idx, kNumBuckets - 1);
}

double Histogram::bucket_mid(std::size_t idx) {
  if (idx == 0) return 0.0;
  // Geometric midpoint of the bucket's [lo, lo * 2^0.25) range.
  const double lo_exp =
      kMinExp + static_cast<double>(idx - 1) / kBucketsPerOctave;
  return std::exp2(lo_exp + 0.5 / kBucketsPerOctave);
}

void Histogram::observe(double v) {
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  if (buckets_.empty()) buckets_.assign(kNumBuckets, 0);
  ++buckets_[bucket_of(v)];
}

void Histogram::merge(const Histogram& other) {
  std::scoped_lock lock(mu_, other.mu_);
  if (other.count_ == 0) return;
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
  if (buckets_.empty()) buckets_.assign(kNumBuckets, 0);
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
}

double Histogram::percentile(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample (1-based, nearest-rank definition).
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      return std::clamp(bucket_mid(i), min_, max_);
    }
  }
  return max_;
}

std::uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}
double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}
double Histogram::min() const {
  std::lock_guard<std::mutex> lock(mu_);
  return min_;
}
double Histogram::max() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_;
}
double Histogram::mean() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}
void Histogram::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  count_ = 0;
  sum_ = min_ = max_ = 0.0;
  buckets_.clear();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::MetricsRegistry() {
  if (const char* env = std::getenv("XBFS_METRICS"); env && *env) {
    enable(env);
  }
}

MetricsRegistry::~MetricsRegistry() { flush(); }

void MetricsRegistry::enable(std::string sink) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!sink.empty()) sink_ = std::move(sink);
  }
  enabled_.store(true, std::memory_order_relaxed);
  // A killed run must not lose the whole table (satellite: SIGINT/SIGTERM
  // flush, not only atexit).
  install_signal_flush();
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

void MetricsRegistry::write_text(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) {
    os << name << ' ' << c->value() << '\n';
  }
  for (const auto& [name, g] : gauges_) {
    os << name << ' ' << g->value() << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    os << name << ".count " << h->count() << '\n'
       << name << ".sum " << h->sum() << '\n'
       << name << ".min " << h->min() << '\n'
       << name << ".max " << h->max() << '\n'
       << name << ".p50 " << h->percentile(0.50) << '\n'
       << name << ".p95 " << h->percentile(0.95) << '\n'
       << name << ".p99 " << h->percentile(0.99) << '\n';
  }
}

void MetricsRegistry::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter w(os);
  w.begin_object();
  for (const auto& [name, c] : counters_) w.kv(name, c->value());
  for (const auto& [name, g] : gauges_) w.kv(name, g->value());
  for (const auto& [name, h] : histograms_) {
    w.kv(name + ".count", h->count());
    w.kv(name + ".sum", h->sum());
    w.kv(name + ".min", h->min());
    w.kv(name + ".max", h->max());
    w.kv(name + ".p50", h->percentile(0.50));
    w.kv(name + ".p95", h->percentile(0.95));
    w.kv(name + ".p99", h->percentile(0.99));
  }
  w.end_object();
  os << '\n';
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [_, c] : counters_) c->reset();
  for (auto& [_, g] : gauges_) g->reset();
  for (auto& [_, h] : histograms_) h->reset();
}

void MetricsRegistry::flush() {
  std::string sink;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sink = sink_;
  }
  if (sink.empty()) return;
  if (sink == "stderr") {
    write_text(std::cerr);
  } else if (sink == "stdout") {
    write_text(std::cout);
  } else {
    std::ofstream out(sink);
    if (out) write_text(out);
  }
}

}  // namespace xbfs::obs
