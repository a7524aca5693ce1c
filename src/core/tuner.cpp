#include "core/tuner.h"

#include <algorithm>
#include <cmath>

#include "core/status.h"
#include "core/xbfs.h"
#include "hipsim/timing.h"

namespace xbfs::core {

bool is_strategy_kernel(Strategy s, std::string_view kernel) {
  switch (s) {
    case Strategy::ScanFree:
      return kernel.find("xbfs_scanfree_expand") != std::string_view::npos ||
             kernel.find("xbfs_classify_bins") != std::string_view::npos;
    case Strategy::SingleScan:
      return kernel.find("xbfs_singlescan_") != std::string_view::npos;
    case Strategy::BottomUp:
      return kernel.find("xbfs_bu_") != std::string_view::npos;
  }
  return false;
}

ForcedRun run_forced_strategy(const sim::DeviceProfile& profile,
                              const graph::Csr& g, graph::vid_t src,
                              Strategy strategy, XbfsConfig base) {
  sim::SimOptions so;
  so.num_workers = 1;
  sim::Device dev(profile, so);
  dev.warmup();  // the one-time HIP warm-up is no strategy's cost
  auto dg = graph::DeviceCsr::upload(dev, g);
  base.forced_strategy = static_cast<int>(strategy);
  Xbfs bfs(dev, dg, base);
  dev.profiler().clear();  // keep the upload out of the rows

  ForcedRun run;
  run.strategy = strategy;
  run.result = bfs.run(src);
  run.levels.resize(run.result.level_stats.size());
  for (std::size_t l = 0; l < run.levels.size(); ++l) {
    run.levels[l].ratio = run.result.level_stats[l].ratio;
  }
  // Xbfs::run's resident grid.
  const double barrier_ms =
      sim::grid_barrier_us(profile, std::max(max_grid_blocks(profile),
                                             base.grid_blocks)) /
      1000.0;
  for (const sim::LaunchRecord& rec : dev.profiler().records()) {
    if (rec.level < 0 ||
        static_cast<std::size_t>(rec.level) >= run.levels.size() ||
        !is_strategy_kernel(strategy, rec.kernel)) {
      continue;
    }
    ForcedLevel& lv = run.levels[static_cast<std::size_t>(rec.level)];
    lv.kernels.push_back(rec);
    lv.kernels_ms += rec.runtime_ms() + (rec.launched ? 0.0 : barrier_ms);
    lv.fetch_kb += rec.fetch_kb();
  }
  return run;
}

TunerReport tune_alpha(const sim::DeviceProfile& profile,
                       const graph::Csr& g, const TunerOptions& opt) {
  TunerReport report;
  report.recommended_alpha = opt.fallback_alpha;

  for (graph::vid_t src : opt.probe_sources) {
    const ForcedRun sf = run_forced_strategy(profile, g, src,
                                             Strategy::ScanFree,
                                             opt.base_config);
    const ForcedRun ss = run_forced_strategy(profile, g, src,
                                             Strategy::SingleScan,
                                             opt.base_config);
    const ForcedRun bu = run_forced_strategy(profile, g, src,
                                             Strategy::BottomUp,
                                             opt.base_config);
    const std::size_t depth =
        std::min({sf.levels.size(), ss.levels.size(), bu.levels.size()});
    for (std::size_t lvl = 0; lvl < depth; ++lvl) {
      TunerReport::Sample s;
      s.ratio = sf.levels[lvl].ratio;
      s.scanfree_ms = sf.levels[lvl].kernels_ms;
      s.singlescan_ms = ss.levels[lvl].kernels_ms;
      s.bottomup_ms = bu.levels[lvl].kernels_ms;
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
