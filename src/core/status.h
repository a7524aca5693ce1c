// Status array: per-vertex visit state, 4 bytes per vertex as in XBFS
// (Tables III-V: the O(|V|) scans move exactly 4|V| bytes).
#pragma once

#include <cstdint>

#include "graph/csr.h"
#include "hipsim/device.h"

namespace xbfs::core {

/// Sentinel for "not yet visited".  Any other value is the BFS level.
inline constexpr std::uint32_t kUnvisited = 0xFFFFFFFFu;
/// The one-byte level readback's "not yet visited".
inline constexpr std::uint8_t kUnvisited8 = 0xFF;
/// Sentinel parent for unreached vertices / the source.
inline constexpr graph::vid_t kNoParent = static_cast<graph::vid_t>(-1);

/// Threads per block of every engine's full-width kernels, and the
/// default of XbfsConfig::block_threads.
inline constexpr unsigned kBlockThreads = 256;

/// Launch geometry helper: blocks needed to give each of `work` items one
/// thread, capped at max_grid_blocks.
unsigned auto_grid_blocks(const sim::DeviceProfile& profile,
                          std::uint64_t work, unsigned block_threads,
                          unsigned waves_per_cu = 8);

/// The auto_grid_blocks cap: `waves_per_cu` resident blocks per CU.  It is
/// also the resident grid of Xbfs's cooperative launch, so every phase fits.
unsigned max_grid_blocks(const sim::DeviceProfile& profile,
                         unsigned waves_per_cu = 8);

/// Launch shape of a grid-stride kernel over `work` items: kBlockThreads
/// per block, auto_grid_blocks blocks.
sim::LaunchConfig full_width_launch(const sim::DeviceProfile& profile,
                                    std::uint64_t work);

/// Kernel: fill the status array with kUnvisited (O(|V|) stores).
void launch_init_status(sim::Device& dev, sim::LaunchTarget on,
                        sim::dspan<std::uint32_t> status,
                        unsigned block_threads);

}  // namespace xbfs::core
