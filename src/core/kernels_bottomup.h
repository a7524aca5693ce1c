// Bottom-up ("double-scan") frontier generation: five kernels per level as
// profiled in the paper's Table V.
//
//   k1 xbfs_bu_count        — per-segment unvisited counts,           O(|V|)
//   k2 xbfs_bu_scan_block   — per-block partial sums of the counts,   small
//   k3 xbfs_bu_scan_final   — exclusive scan + per-segment offsets,   small
//   k4 xbfs_bu_queue_gen    — globally sorted bottom-up queue,        O(|V|)
//   k5 xbfs_bu_expand       — early-terminating expansion,            O(|E|) worst
//
// k5 also implements the paper's look-ahead: an unvisited vertex whose
// neighbor was updated earlier in the same pass is promoted to level+2 and
// parked in the pending queue (the "v7 updated => v8 updated" example).
#pragma once

#include <cstdint>

#include "core/config.h"
#include "core/frontier.h"
#include "graph/device_csr.h"
#include "hipsim/device.h"

namespace xbfs::core {

struct BottomUpArgs {
  /// The graph: base rows skip kTombstone entries, then the overlay row.
  graph::DeviceAdjacency adj;
  sim::dspan<std::uint32_t> status;
  sim::dspan<graph::vid_t> parent;  ///< empty when parents are not built
  sim::dspan<graph::vid_t> bu_queue;
  sim::dspan<graph::vid_t> next_queue;
  sim::dspan<graph::vid_t> pending_queue;
  sim::dspan<std::uint32_t> seg_counts;
  sim::dspan<std::uint32_t> seg_offsets;
  sim::dspan<std::uint32_t> block_sums;
  sim::dspan<std::uint32_t> counters;
  sim::dspan<std::uint64_t> edge_counters;
  /// The next level's counter set, zeroed by k1 (empty = leave alone; see
  /// frontier.h).
  CounterSpans next_counters;
  /// Bit-status extension (empty spans = disabled): the expansion probes
  /// bitmap_cur (level cur_level) instead of the 4-byte status array, and
  /// commits claims into bitmap_next / bitmap_nextnext.
  sim::dspan<const std::uint64_t> bitmap_cur;
  sim::dspan<std::uint64_t> bitmap_next;
  sim::dspan<std::uint64_t> bitmap_nextnext;
  std::uint32_t n = 0;             ///< vertices
  std::uint32_t num_segments = 0;
  std::uint32_t segment_size = 0;  ///< wavefront-size multiple
  std::uint32_t cur_level = 0;
};

/// Number of blocks the two scan kernels use for `num_segments` segments.
unsigned bu_scan_blocks(const sim::DeviceProfile& profile,
                        std::uint32_t num_segments, unsigned block_threads);

/// Block 0 also zeroes a.next_counters.
sim::LaunchResult launch_bu_count(sim::Device& dev, sim::LaunchTarget on,
                                  const BottomUpArgs& a,
                                  const XbfsConfig& cfg);
sim::LaunchResult launch_bu_scan_block(sim::Device& dev, sim::LaunchTarget on,
                                       const BottomUpArgs& a,
                                       const XbfsConfig& cfg);
/// Writes the total candidate count into counters[kCurTail].
sim::LaunchResult launch_bu_scan_final(sim::Device& dev, sim::LaunchTarget on,
                                       const BottomUpArgs& a,
                                       const XbfsConfig& cfg);
sim::LaunchResult launch_bu_queue_gen(sim::Device& dev, sim::LaunchTarget on,
                                      const BottomUpArgs& a,
                                      const XbfsConfig& cfg);
/// Reads the candidate total from counters[kCurTail] (written by k3).
/// @param grid_candidates estimate of that total; sizes the grid only (the
///        kernel is grid-stride over the device total).
sim::LaunchResult launch_bu_expand(sim::Device& dev, sim::LaunchTarget on,
                                   const BottomUpArgs& a,
                                   std::uint32_t grid_candidates,
                                   const XbfsConfig& cfg);

}  // namespace xbfs::core
