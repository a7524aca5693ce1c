// Top-down frontier expansion kernels: the scan-free strategy (atomic status
// update + atomic frontier enqueue) and the single-scan strategy (status-scan
// queue generation followed by atomic-free expansion), both with the
// warp-centric degree-binned workload balancing of Sec. IV-A.
#pragma once

#include <cstdint>

#include "core/config.h"
#include "core/frontier.h"
#include "graph/device_csr.h"
#include "hipsim/device.h"

namespace xbfs::core {

/// Balancing::DegreeBinned: a frontier vertex of degree at or below this
/// gathers on one lane, a larger one on a whole wavefront.
inline constexpr unsigned kSmallDegreeThreshold = 16;
/// StreamMode::TripleBinned bin edges: degree < kMediumMinDegree -> small
/// bin, degree < kLargeMinDegree -> medium bin, else large bin.
inline constexpr unsigned kMediumMinDegree = 64;
inline constexpr unsigned kLargeMinDegree = 4096;

/// Everything a top-down expansion kernel touches.
struct TopDownArgs {
  /// The graph: base rows skip kTombstone entries, then the overlay row.
  graph::DeviceAdjacency adj;
  sim::dspan<std::uint32_t> status;
  sim::dspan<graph::vid_t> parent;  ///< empty when parents are not built
  sim::dspan<const graph::vid_t> queue;  ///< current frontier
  /// Frontier size; with queue_size_on_device only an upper bound that
  /// sizes the grid.
  std::uint32_t queue_size = 0;
  /// Read the frontier size from counters[kCurTail], where the generation
  /// scan left it, instead of a host readback.
  bool queue_size_on_device = false;
  sim::dspan<graph::vid_t> next_queue;
  sim::dspan<std::uint32_t> counters;
  sim::dspan<std::uint64_t> edge_counters;
  /// The next level's counter set, zeroed by this level's first kernel
  /// (empty = leave alone; see frontier.h).
  CounterSpans next_counters;
  /// Frontier bitmap of level cur_level+1; claims set bits here when the
  /// bit-status extension is enabled (empty = disabled).
  sim::dspan<std::uint64_t> bitmap_next;
  std::uint32_t cur_level = 0;
};

/// Scan-free: expand `queue`, CAS statuses to cur_level+1, enqueue winners
/// into next_queue (warp-aggregated atomics) and accumulate their degrees.
sim::LaunchResult launch_scanfree_expand(sim::Device& dev, sim::LaunchTarget on,
                                         const TopDownArgs& a,
                                         const XbfsConfig& cfg);

/// Single-scan kernel 1: scan the status array for status==cur_level and
/// (atomically) enqueue the matches into `queue_out`, tail counters[kCurTail].
/// Block 0 zeroes `next_counters`.
sim::LaunchResult launch_singlescan_generate(
    sim::Device& dev, sim::LaunchTarget on, sim::dspan<std::uint32_t> status,
    sim::dspan<graph::vid_t> queue_out, sim::dspan<std::uint32_t> counters,
    std::uint32_t cur_level, const XbfsConfig& cfg,
    const CounterSpans& next_counters = {});

/// Single-scan kernel 2: expand `queue` with plain (atomic-free) status
/// checks/updates; counts newly visited vertices and their degrees but does
/// not build the next queue.
sim::LaunchResult launch_singlescan_expand(sim::Device& dev, sim::LaunchTarget on,
                                           const TopDownArgs& a,
                                           const XbfsConfig& cfg);

/// TripleBinned classification: split `queue` into three degree bins
/// (tails at kBinSmall/kBinMedium/kBinLarge).
sim::LaunchResult launch_classify_bins(sim::Device& dev, sim::LaunchTarget on,
                                       const TopDownArgs& a,
                                       sim::dspan<graph::vid_t> bin_small,
                                       sim::dspan<graph::vid_t> bin_medium,
                                       sim::dspan<graph::vid_t> bin_large,
                                       const XbfsConfig& cfg);

/// Scan-free expansion over one degree bin with a fixed balancing mode
/// (used by the TripleBinned / three-stream configuration).
sim::LaunchResult launch_scanfree_expand_bin(sim::Device& dev, sim::LaunchTarget on,
                                             const TopDownArgs& a,
                                             sim::dspan<const graph::vid_t> bin,
                                             std::uint32_t bin_size,
                                             Balancing balancing,
                                             const char* kernel_name,
                                             const XbfsConfig& cfg);

}  // namespace xbfs::core
