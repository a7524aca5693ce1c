// Process-wide counter/gauge/histogram registry.
//
// Instruments are created on first lookup and live for the process, so hot
// paths can cache the returned reference and update it lock-free (counters
// and gauges are single atomics; histograms take a spin-sized mutex).  The
// registry absorbs the simulator's KernelCounters rollups (hipsim reports
// launches, fetched bytes, atomics, modelled kernel time) and the XBFS
// policy's per-strategy decision counts.
//
// Enabled by XBFS_METRICS=stderr|stdout|<path>: the global registry dumps a
// sorted text table to that sink at process exit.  Programmatic use
// (enable()/write_text()/write_json()) works regardless of the env var.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace xbfs::obs {

class Counter {
 public:
  /// Returns the new value.
  std::uint64_t add(std::uint64_t n = 1) {
    return v_.fetch_add(n, std::memory_order_relaxed) + n;
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Streaming summary histogram: exact count/sum/min/max plus a bounded
/// log-bucketed distribution (quarter-octave buckets, ~9% relative error)
/// so long-running consumers — notably the serving engine's latency
/// tracking — can report p50/p95/p99 without storing every sample.
class Histogram {
 public:
  void observe(double v);
  /// Add every observation `other` (a different histogram) holds.
  void merge(const Histogram& other);
  std::uint64_t count() const;
  double sum() const;
  double min() const;
  double max() const;
  double mean() const;
  /// Approximate quantile (q in [0,1]) from the log-bucketed counts,
  /// clamped to the exact observed [min, max].  0.0 when empty.
  double percentile(double q) const;
  void reset();

 private:
  static std::size_t bucket_of(double v);
  static double bucket_mid(std::size_t idx);

  mutable std::mutex mu_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::vector<std::uint64_t> buckets_;  ///< allocated on first observe()
};

class MetricsRegistry {
 public:
  /// The process-wide registry; reads XBFS_METRICS on first use and, when
  /// set, dumps the text table to that sink at process exit.
  static MetricsRegistry& global();

  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Whether instrumentation sites should bother recording.  Lookup still
  /// works when disabled (tests flip this freely).
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// `sink`: "stderr", "stdout" or a file path for the exit dump ("" keeps
  /// the current sink).
  void enable(std::string sink = "");
  void disable() { enabled_.store(false, std::memory_order_relaxed); }

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Sorted `name value` lines; histograms expand to .count/.sum/.min/.max.
  void write_text(std::ostream& os) const;
  /// One flat JSON object keyed by metric name.
  void write_json(std::ostream& os) const;

  /// Zero every instrument (references stay valid).
  void reset();
  /// Write the text table to the configured sink (no-op without one).
  void flush();

 private:
  std::atomic<bool> enabled_{false};
  std::string sink_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace xbfs::obs
