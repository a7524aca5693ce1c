// Reproduces Fig. 7: the modelled runtime of each strategy as a function of
// the frontier-edge ratio on the Rmat25 stand-in, over the levels from the
// start of the BFS up to the ratio peak.  Expected shape: scan-free wins at
// tiny ratios, bottom-up is catastrophically slow there (it scans nearly all
// edges), and the curves cross a little above ratio ~0.1 — the basis for
// the paper's choice of alpha = 0.1.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "core/tuner.h"

using namespace xbfs;
using namespace xbfs::bench;

int main(int argc, char** argv) {
  BenchOptions opt = BenchOptions::parse(argc, argv);
  std::printf("Fig. 7 reproduction: Rmat25 stand-in, scale divisor %u\n",
              opt.scale_divisor);

  LoadedDataset d = load_dataset(graph::DatasetId::R25, opt);
  const graph::vid_t src = pick_sources(d, 1, opt.seed)[0];

  const sim::DeviceProfile profile = scaled_mi250x(opt);
  const core::ForcedRun runs[3] = {
      core::run_forced_strategy(profile, d.host, src, core::Strategy::ScanFree),
      core::run_forced_strategy(profile, d.host, src,
                                core::Strategy::SingleScan),
      core::run_forced_strategy(profile, d.host, src, core::Strategy::BottomUp),
  };

  // Levels up to (and including) the ratio peak, as in the paper.
  std::size_t peak = 0;
  for (std::size_t lvl = 0; lvl < runs[0].levels.size(); ++lvl) {
    if (runs[0].levels[lvl].ratio >= runs[0].levels[peak].ratio) peak = lvl;
  }

  print_header(
      "Fig. 7: per-strategy kernel runtime (ms) vs frontier-edge ratio");
  std::printf("%-7s %-12s %-14s %-14s %-14s %-10s\n", "Level", "ratio",
              "scan-free", "single-scan", "bottom-up", "winner");
  double best_alpha_lo = 0.0, best_alpha_hi = 1.0;
  for (std::size_t lvl = 0; lvl <= peak; ++lvl) {
    double ms[3];
    for (int s = 0; s < 3; ++s) {
      ms[s] =
          lvl < runs[s].levels.size() ? runs[s].levels[lvl].kernels_ms : 0.0;
    }
    const double td_best = std::min(ms[0], ms[1]);
    const char* winner =
        ms[2] < td_best
            ? "bottom-up"
            : (ms[0] <= ms[1] ? "scan-free" : "single-scan");
    const double ratio = runs[0].levels[lvl].ratio;
    if (ms[2] < td_best) {
      best_alpha_hi = std::min(best_alpha_hi, ratio);
    } else {
      best_alpha_lo = std::max(best_alpha_lo, ratio);
    }
    std::printf("%-7zu %-12.3e %-14.3f %-14.3f %-14.3f %-10s\n", lvl, ratio,
                ms[0], ms[1], ms[2], winner);
  }
  if (best_alpha_lo < best_alpha_hi) {
    std::printf(
        "\nbottom-up becomes profitable between ratio %.3e and %.3e "
        "(paper sets alpha = 0.1)\n",
        best_alpha_lo, best_alpha_hi);
  } else {
    std::printf(
        "\ncrossover region overlaps (lo %.3e, hi %.3e); alpha ~ 0.1 remains "
        "a reasonable threshold\n",
        best_alpha_lo, best_alpha_hi);
  }
  return 0;
}
