// Alpha auto-tuning: the paper's "Performance Profiling" takeaway
// ("Utilizing rocProfiler ... allowed us to estimate optimal parameters for
// peak performance across different graph structures and sizes", Sec. I;
// methodology in Sec. V-D/E).
//
// The tuner replays the paper's Fig. 7 experiment programmatically: it runs
// each strategy forced on probe traversals, collects per-level (ratio,
// kernel-time) points, finds where bottom-up starts beating the best
// top-down strategy, and recommends an alpha inside that bracket.
#pragma once

#include <string_view>
#include <vector>

#include "core/config.h"
#include "core/xbfs.h"
#include "graph/device_csr.h"
#include "hipsim/device.h"

namespace xbfs::core {

/// True when `kernel` belongs to strategy `s`'s per-level pipeline (not
/// setup, pending append, bitmap clear or readback).
bool is_strategy_kernel(Strategy s, std::string_view kernel);

/// One level of a traversal with one strategy forced at every level.
struct ForcedLevel {
  double ratio = 0.0;
  std::vector<sim::LaunchRecord> kernels;  ///< the strategy's rows only
  /// What the strategy pays for the level: each of its rows, which carries
  /// the launch overhead of a stand-alone launch, plus one grid barrier per
  /// phase row of the cooperative launch, which no row carries.  A level
  /// of n phases pays n barriers: n - 1 between them and one in front of
  /// its decision (the next level's first phase follows the decision with
  /// none).
  double kernels_ms = 0.0;
  double fetch_kb = 0.0;  ///< sum over the strategy's rows
};

struct ForcedRun {
  Strategy strategy = Strategy::ScanFree;
  BfsResult result;
  std::vector<ForcedLevel> levels;  ///< one per traversal level
};

/// Run Xbfs on `g` from `src` with `strategy` forced at every level (under
/// `base`, whose forced_strategy is ignored) on a fresh single-worker
/// device, so the counters are bit-reproducible, and collate the
/// strategy's profiler rows by level.  The device is warmed first: neither
/// the rows nor `result.total_ms` carry `first_launch_us`.
ForcedRun run_forced_strategy(const sim::DeviceProfile& profile,
                              const graph::Csr& g, graph::vid_t src,
                              Strategy strategy, XbfsConfig base = {});

struct TunerOptions {
  /// Probe sources; more probes widen the level/ratio coverage.
  std::vector<graph::vid_t> probe_sources;
  /// Alpha to fall back to when a bracket cannot be established.
  double fallback_alpha = 0.1;
  /// Base configuration the probes run under (forced_strategy is ignored).
  XbfsConfig base_config = {};
};

struct TunerReport {
  double recommended_alpha = 0.1;
  /// Largest ratio observed where a top-down strategy still won.
  double bracket_low = 0.0;
  /// Smallest ratio observed where bottom-up won.
  double bracket_high = 1.0;
  bool bracket_found = false;
  /// One sample per (probe, level): the raw data behind the decision.
  struct Sample {
    double ratio = 0.0;
    double scanfree_ms = 0.0;
    double singlescan_ms = 0.0;
    double bottomup_ms = 0.0;
  };
  std::vector<Sample> samples;
};

/// Run the forced-strategy probes on a dedicated deterministic device and
/// recommend an alpha for this (graph, device-profile) pair.
TunerReport tune_alpha(const sim::DeviceProfile& profile,
                       const graph::Csr& g, const TunerOptions& opt);

}  // namespace xbfs::core
