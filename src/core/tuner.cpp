#include "core/tuner.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "core/status.h"
#include "core/xbfs.h"
#include "hipsim/timing.h"

namespace xbfs::core {

namespace {

bool is_strategy_kernel(Strategy s, const std::string& kernel) {
  switch (s) {
    case Strategy::ScanFree:
      return kernel.find("xbfs_scanfree_expand") != std::string::npos ||
             kernel.find("xbfs_classify_bins") != std::string::npos;
    case Strategy::SingleScan:
      return kernel.find("xbfs_singlescan_") != std::string::npos;
    case Strategy::BottomUp:
      return kernel.find("xbfs_bu_") != std::string::npos;
  }
  return false;
}

/// Per-level (ratio, strategy-kernel time) trace of one forced run.  A
/// kernel's time is what the strategy pays for it: its row, which carries
/// the launch overhead of a stand-alone launch, plus the grid barrier in
/// front of a phase of the cooperative launch, which no row carries.
struct ProbeTrace {
  std::vector<double> ratio;
  std::vector<double> kernels_ms;
};

ProbeTrace probe(const sim::DeviceProfile& profile, const graph::Csr& g,
                 graph::vid_t src, Strategy strategy,
                 const XbfsConfig& base) {
  sim::SimOptions so;
  so.num_workers = 1;
  sim::Device dev(profile, so);
  dev.warmup();
  auto dg = graph::DeviceCsr::upload(dev, g);
  XbfsConfig cfg = base;
  cfg.forced_strategy = static_cast<int>(strategy);
  Xbfs bfs(dev, dg, cfg);
  dev.profiler().clear();
  const BfsResult r = bfs.run(src);

  // Xbfs::run's resident grid.
  const double barrier_ms =
      sim::grid_barrier_us(profile, std::max(max_grid_blocks(profile),
                                             cfg.grid_blocks)) /
      1000.0;
  ProbeTrace t;
  t.ratio.resize(r.level_stats.size());
  t.kernels_ms.assign(r.level_stats.size(), 0.0);
  for (std::size_t lvl = 0; lvl < r.level_stats.size(); ++lvl) {
    t.ratio[lvl] = r.level_stats[lvl].ratio;
  }
  for (const sim::LaunchRecord& rec : dev.profiler().records()) {
    if (rec.level < 0 ||
        static_cast<std::size_t>(rec.level) >= t.kernels_ms.size()) {
      continue;
    }
    if (is_strategy_kernel(strategy, rec.kernel)) {
      t.kernels_ms[static_cast<std::size_t>(rec.level)] +=
          rec.runtime_ms() + (rec.launched ? 0.0 : barrier_ms);
    }
  }
  return t;
}

}  // namespace

TunerReport tune_alpha(const sim::DeviceProfile& profile,
                       const graph::Csr& g, const TunerOptions& opt) {
  TunerReport report;
  report.recommended_alpha = opt.fallback_alpha;

  for (graph::vid_t src : opt.probe_sources) {
    const ProbeTrace sf =
        probe(profile, g, src, Strategy::ScanFree, opt.base_config);
    const ProbeTrace ss =
        probe(profile, g, src, Strategy::SingleScan, opt.base_config);
    const ProbeTrace bu =
        probe(profile, g, src, Strategy::BottomUp, opt.base_config);
    const std::size_t depth =
        std::min({sf.ratio.size(), ss.ratio.size(), bu.ratio.size()});
    for (std::size_t lvl = 0; lvl < depth; ++lvl) {
      TunerReport::Sample s;
      s.ratio = sf.ratio[lvl];
      s.scanfree_ms = sf.kernels_ms[lvl];
      s.singlescan_ms = ss.kernels_ms[lvl];
      s.bottomup_ms = bu.kernels_ms[lvl];
      report.samples.push_back(s);
    }
  }

  // Bracket the crossover: the largest ratio where top-down still won and
  // the smallest where bottom-up won.
  double lo = 0.0, hi = 1.0;
  bool saw_lo = false, saw_hi = false;
  for (const TunerReport::Sample& s : report.samples) {
    if (s.ratio <= 0.0) continue;
    const double topdown = std::min(s.scanfree_ms, s.singlescan_ms);
    if (s.bottomup_ms < topdown) {
      if (!saw_hi || s.ratio < hi) hi = s.ratio;
      saw_hi = true;
    } else {
      if (!saw_lo || s.ratio > lo) lo = s.ratio;
      saw_lo = true;
    }
  }
  report.bracket_low = lo;
  report.bracket_high = hi;
  report.bracket_found = saw_lo && saw_hi && lo < hi;
  if (report.bracket_found) {
    // Geometric mean of the bracket: ratios span orders of magnitude.
    report.recommended_alpha = std::sqrt(lo * hi);
  } else if (saw_hi && !saw_lo) {
    // Bottom-up always won where observed: be aggressive.
    report.recommended_alpha = hi / 2.0;
  } else if (saw_lo && !saw_hi) {
    // Bottom-up never won: effectively disable it (1.1 > any ratio).
    report.recommended_alpha =
        std::min(1.1, std::max(opt.fallback_alpha, 2.0 * lo));
  }
  return report;
}

}  // namespace xbfs::core
