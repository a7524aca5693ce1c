// Reproduces Table VI: total memory read (MB) and runtime (ms) per level for
// the three strategies on the Rmat25 stand-in, with the per-level winner
// marked.  Expected shape (paper Sec. V-E): scan-free wins the shallow and
// deep levels, single-scan takes the steep-growth level despite reading more
// (no atomic status updates), bottom-up wins the peak-ratio levels.
#include <algorithm>
#include <cstdio>

#include "bench/bench_common.h"
#include "core/tuner.h"

using namespace xbfs;
using namespace xbfs::bench;

int main(int argc, char** argv) {
  BenchOptions opt = BenchOptions::parse(argc, argv);
  std::printf("Table VI reproduction: Rmat25 stand-in, scale divisor %u\n",
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

  const std::size_t depth = std::max(
      {runs[0].levels.size(), runs[1].levels.size(), runs[2].levels.size()});
  print_header(
      "Table VI: total memory read (MB) / runtime (ms) per level, * = winner");
  std::printf("%-6s %-26s %-26s %-26s\n", "Level", "Scan Free", "Single Scan",
              "Bottom up");
  for (std::size_t lvl = 0; lvl < depth; ++lvl) {
    double ms[3], mb[3];
    bool present[3];
    for (int s = 0; s < 3; ++s) {
      present[s] = lvl < runs[s].levels.size();
      ms[s] = present[s] ? runs[s].levels[lvl].kernels_ms : 0.0;
      mb[s] = present[s] ? runs[s].levels[lvl].fetch_kb / 1024.0 : 0.0;
    }
    int winner = -1;
    double best = 0;
    for (int s = 0; s < 3; ++s) {
      if (present[s] && (winner < 0 || ms[s] < best)) {
        winner = s;
        best = ms[s];
      }
    }
    std::printf("%-6zu ", lvl);
    for (int s = 0; s < 3; ++s) {
      if (present[s]) {
        char cell[64];
        std::snprintf(cell, sizeof(cell), "%.3f / %.2f%s", mb[s], ms[s],
                      s == winner ? " *" : "");
        std::printf("%-26s ", cell);
      } else {
        std::printf("%-26s ", "-");
      }
    }
    std::putchar('\n');
  }

  std::printf("\nend-to-end (forced) totals:\n");
  for (int s = 0; s < 3; ++s) {
    std::printf("  %-12s depth %2u, modelled %8.3f ms\n",
                core::strategy_name(runs[s].strategy), runs[s].result.depth,
                runs[s].result.total_ms);
  }
  return 0;
}
