// Reproduces Tables III, IV and V: rocprofiler-style per-kernel counters
// (Runtime, L2CacheHit, MemUnitBusy, FetchSize) for the scan-free,
// single-scan and bottom-up strategies forced at every level on the Rmat25
// stand-in.  Expected shapes (paper Sec. V-E):
//   * scan-free: one kernel per level, FetchSize ~ O(|F|) — tiny at the
//     shallow/deep levels, huge at the peak-ratio levels;
//   * single-scan: two kernels, the generation scan pinned at ~4|V| bytes;
//   * bottom-up: five kernels, k1/k4 pinned at ~4|V| bytes, k5 falling from
//     O(|E|) at level 0 to almost nothing once most vertices are visited;
//   * the paper's level-0 rows absorb the ~20 ms HIP warm-up.  Here the
//     forced runs use a warmed device (core::run_forced_strategy), so the
//     warm-up a cold device pays on its first launch is printed once, on
//     its own line, and no row carries it.
#include <cstdio>

#include "bench/bench_common.h"
#include "core/tuner.h"

using namespace xbfs;
using namespace xbfs::bench;

namespace {

void print_strategy_table(const char* title, const core::ForcedRun& run) {
  print_header(title);
  std::printf("%-10s %-7s %-13s %-9s %-10s %-16s\n", "Ratio", "Level",
              "Runtime(ms)", "L2(%)", "MBusy(%)", "FS(KB)");
  for (std::size_t level = 0; level < run.levels.size(); ++level) {
    const core::ForcedLevel& row = run.levels[level];
    for (const sim::LaunchRecord& k : row.kernels) {
      std::printf("%-10.2e %-7zu %-13.3f %-9.3f %-10.3f %-16.3f  %s\n",
                  row.ratio, level, k.runtime_ms(), k.l2_pct(),
                  k.mbusy_pct(), k.fetch_kb(), k.kernel.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opt = BenchOptions::parse(argc, argv);
  std::printf("Tables III-V reproduction: Rmat25 stand-in, scale divisor %u\n",
              opt.scale_divisor);

  LoadedDataset d = load_dataset(graph::DatasetId::R25, opt);
  std::printf("|V| = %u, |E| = %llu (directed entries)\n",
              d.host.num_vertices(),
              static_cast<unsigned long long>(d.host.num_edges()));
  const graph::vid_t src = pick_sources(d, 1, opt.seed)[0];
  std::printf("HIP warm-up (first launch on a cold device): %.3f ms, "
              "paid once, off every row below\n",
              scaled_mi250x(opt).first_launch_us / 1000.0);

  const core::ForcedRun sf =
      core::run_forced_strategy(scaled_mi250x(opt), d.host, src,
                                core::Strategy::ScanFree);
  print_strategy_table("Table III: scan-free strategy (rocprofiler view)",
                       sf);

  const core::ForcedRun ss =
      core::run_forced_strategy(scaled_mi250x(opt), d.host, src,
                                core::Strategy::SingleScan);
  print_strategy_table("Table IV: single-scan strategy (rocprofiler view)",
                       ss);

  const core::ForcedRun bu =
      core::run_forced_strategy(scaled_mi250x(opt), d.host, src,
                                core::Strategy::BottomUp);
  print_strategy_table("Table V: bottom-up strategy (rocprofiler view)", bu);

  return 0;
}
