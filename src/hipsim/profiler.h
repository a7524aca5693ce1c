// rocprofiler-style per-kernel records.  Every launch (when profiling is
// enabled) appends one row carrying the three counters the paper reports —
// FetchSize, L2CacheHit, MemUnitBusy — plus the raw event counts, a free-form
// tag (we use it for the BFS level and strategy) and the modelled duration.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "hipsim/counters.h"
#include "hipsim/timing.h"

namespace xbfs::sim {

struct LaunchRecord {
  std::string kernel;   ///< kernel name as passed to Device::launch
  std::string tag;      ///< caller-set context, e.g. "level=3 strategy=bu"
  int level = -1;       ///< caller-set BFS level (or -1)
  /// Paid a launch: true for a stand-alone launch and for the first phase
  /// of a cooperative launch (whose timing carries the launch overhead),
  /// false for the other phases (hipsim/grid.h).
  bool launched = true;
  KernelCounters counters;
  TimingBreakdown timing;

  double runtime_ms() const { return timing.total_us / 1000.0; }
  double l2_pct() const { return counters.l2_hit_pct(); }
  double mbusy_pct() const { return timing.mem_unit_busy_pct(); }
  double fetch_kb() const { return counters.fetch_kb(); }
};

class Profiler {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Context applied to subsequently recorded launches.
  void set_context(int level, std::string tag) {
    level_ = level;
    tag_ = std::move(tag);
  }
  int level() const { return level_; }
  const std::string& tag() const { return tag_; }

  void record(LaunchRecord r) {
    if (enabled_) records_.push_back(std::move(r));
  }
  /// Drop all records AND the launch context, so a fresh run cannot inherit
  /// the previous run's level/tag.
  void clear() {
    records_.clear();
    level_ = -1;
    tag_.clear();
  }

  const std::vector<LaunchRecord>& records() const { return records_; }

  /// Rows whose kernel name contains `substr` (empty matches all).
  std::vector<LaunchRecord> matching(const std::string& substr) const;

  /// Sum of modelled runtime (ms) over rows matching `substr`.
  double total_runtime_ms(const std::string& substr = "") const;
  /// Sum of HBM fetch traffic (KB) over rows matching `substr`.
  double total_fetch_kb(const std::string& substr = "") const;

  /// Print a table resembling the paper's rocprofiler tables (III-V).
  void print_table(std::ostream& os) const;

  /// Runtime summed per kernel name (the Fig. 5 "toolkit" view), sorted by
  /// descending total runtime.  `launches` counts rows that paid a launch.
  struct KernelTotal {
    std::string kernel;
    double runtime_ms = 0;
    double fetch_kb = 0;
    std::uint64_t launches = 0;
  };
  std::vector<KernelTotal> aggregate_by_kernel() const;

  /// rocprof-style CSV dump of every record.
  void write_csv(std::ostream& os) const;

 private:
  bool enabled_ = true;
  int level_ = -1;
  std::string tag_;
  std::vector<LaunchRecord> records_;
};

}  // namespace xbfs::sim
