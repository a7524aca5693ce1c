#include "core/status.h"

#include <algorithm>

#include "core/config.h"

namespace xbfs::core {

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::ScanFree:
      return "scan-free";
    case Strategy::SingleScan:
      return "single-scan";
    case Strategy::BottomUp:
      return "bottom-up";
  }
  return "?";
}

unsigned auto_grid_blocks(const sim::DeviceProfile& profile,
                          std::uint64_t work, unsigned block_threads,
                          unsigned waves_per_cu) {
  const std::uint64_t needed =
      (work + block_threads - 1) / std::max(1u, block_threads);
  return static_cast<unsigned>(std::clamp<std::uint64_t>(
      needed, 1, max_grid_blocks(profile, waves_per_cu)));
}

unsigned max_grid_blocks(const sim::DeviceProfile& profile,
                         unsigned waves_per_cu) {
  return profile.num_cus * std::max(1u, waves_per_cu);
}

sim::LaunchConfig full_width_launch(const sim::DeviceProfile& profile,
                                    std::uint64_t work) {
  return {.grid_blocks = auto_grid_blocks(profile, work, kBlockThreads),
          .block_threads = kBlockThreads};
}

void launch_init_status(sim::Device& dev, sim::LaunchTarget on,
                        sim::dspan<std::uint32_t> status,
                        unsigned block_threads) {
  sim::LaunchConfig cfg;
  cfg.block_threads = block_threads;
  cfg.grid_blocks =
      auto_grid_blocks(dev.profile(), status.size(), block_threads);
  dev.launch(on, "xbfs_init_status", cfg, [=](sim::BlockCtx& blk) {
    auto& ctx = blk.ctx();
    blk.grid_stride(status.size(),
                    [&](std::uint64_t i) { ctx.store(status, i, kUnvisited); });
  });
}

}  // namespace xbfs::core
