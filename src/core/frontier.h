// Frontier queues and level counters: every device buffer one XBFS run
// needs, plus the reads of the per-level counters that feed the adaptive
// controller — a modelled host readback, or device loads inside the
// cooperative launch.
//
// The counters rotate through three sets so no launch resets them: level
// k accumulates into counter_sets[k % 3], and its first kernel zeroes
// counter_sets[(k + 1) % 3] for level k+1.  That set was last read for
// level k-2's decision.  In the cooperative launch every block reads level
// k-1's set for the decision that picks level k's kernels and branches
// straight into them with no barrier between, so the set level k zeroes
// must not be the one just read: with two sets it would be.
#pragma once

#include <cstdint>

#include "graph/csr.h"
#include "graph/device_csr.h"
#include "hipsim/device.h"

namespace xbfs::core {

/// Indices into CounterSet::counters (uint32 slots).
enum CounterSlot : std::size_t {
  kNextTail = 0,     ///< next-level frontier queue tail
  kPendingTail = 1,  ///< look-ahead (level+2) queue tail
  kNewCount = 2,     ///< newly visited count (single-scan expand)
  kCurTail = 3,      ///< current queue tail (generation scans)
  kBinSmall = 4,     ///< triple-binned small-queue tail
  kBinMedium = 5,
  kBinLarge = 6,
  kNumCounters = 7,
};

/// Indices into CounterSet::edge_counters (uint64 slots).
enum EdgeCounterSlot : std::size_t {
  kNextEdges = 0,     ///< sum of degrees of next-level frontier
  kPendingEdges = 1,  ///< sum of degrees of look-ahead vertices
  kNumEdgeCounters = 2,
};

/// Device view of one counter set.
struct CounterSpans {
  sim::dspan<std::uint32_t> counters;
  sim::dspan<std::uint64_t> edge_counters;

  bool empty() const { return counters.empty(); }
};

/// One level's counters.
struct CounterSet {
  sim::DeviceBuffer<std::uint32_t> counters;       ///< kNumCounters
  sim::DeviceBuffer<std::uint64_t> edge_counters;  ///< kNumEdgeCounters

  CounterSpans spans() { return {counters.span(), edge_counters.span()}; }
};

struct BfsBuffers {
  sim::DeviceBuffer<std::uint32_t> status;   ///< n
  sim::DeviceBuffer<graph::vid_t> parent;    ///< n (empty unless requested)
  sim::DeviceBuffer<graph::vid_t> queue_a;   ///< n (current/next, swapped)
  sim::DeviceBuffer<graph::vid_t> queue_b;   ///< n
  /// Look-ahead (level+2) vertices, double-buffered: pass k appends the
  /// previous pass's pending to the next queue while writing its own.
  sim::DeviceBuffer<graph::vid_t> pending_a;
  sim::DeviceBuffer<graph::vid_t> pending_b;
  sim::DeviceBuffer<graph::vid_t> bu_queue;  ///< n (bottom-up candidates)
  CounterSet counter_sets[3];  ///< level k uses counter_sets[k % 3]
  // Bottom-up double-scan scratch.
  sim::DeviceBuffer<std::uint32_t> seg_counts;
  sim::DeviceBuffer<std::uint32_t> seg_offsets;
  sim::DeviceBuffer<std::uint32_t> block_sums;
  // Triple-binned queues (allocated only in that stream mode).
  sim::DeviceBuffer<graph::vid_t> bin_small;
  sim::DeviceBuffer<graph::vid_t> bin_medium;
  sim::DeviceBuffer<graph::vid_t> bin_large;
  /// Frontier bitmaps (1 bit/vertex) for the bottom-up bit-status check,
  /// rotated cur/next/next-next so look-ahead claims land in the right
  /// level's map.  Allocated only when XbfsConfig::bottomup_bitmap is set.
  sim::DeviceBuffer<std::uint64_t> bitmaps[3];

  std::uint32_t num_segments = 0;
  std::uint32_t segment_size = 0;

  static BfsBuffers allocate(sim::Device& dev, graph::vid_t n,
                             std::uint32_t segment_size,
                             std::uint32_t scan_blocks, bool with_parents,
                             bool with_bins, bool with_bitmaps = false);

  std::size_t bitmap_words(graph::vid_t n) const {
    return (static_cast<std::size_t>(n) + 63) / 64;
  }
};

/// One level's counter-set snapshot: a modelled d2h readback on the host,
/// or the loads of every block of a cooperative launch.
struct LevelCounters {
  std::uint32_t next_count = 0;
  std::uint32_t pending_count = 0;
  std::uint32_t new_count = 0;
  std::uint32_t cur_count = 0;
  std::uint64_t next_edges = 0;
  std::uint64_t pending_edges = 0;
};

/// Kernel `xbfs_init`: set up a run from `src` in one launch — status
/// (kUnvisited, 0 at src), parent (kNoParent, src at src) when allocated,
/// the three bitmaps when allocated (only src's bit set, in bitmaps[0]),
/// queue_a[0] = src, and every counter set zeroed.
void launch_init(sim::Device& dev, sim::LaunchTarget on, BfsBuffers& b,
                 graph::vid_t src, unsigned block_threads);

/// Device side: block 0 zeroes `set` in one block-wide pass; other blocks
/// and an empty set are no-ops.  Called from a level's first kernel to
/// ready the next level's counters without a launch of its own.
void zero_counter_set(sim::BlockCtx& blk, const CounterSpans& set);

/// Read one counter set back to the host (charges the modelled d2h time).
LevelCounters read_counters(sim::Device& dev, sim::Stream& s,
                            const CounterSet& set);

/// Device side of read_counters: the calling block loads one counter set
/// (six loads), as every block of a cooperative launch does after the
/// barrier that ends a level.
LevelCounters load_counters(sim::ExecCtx& ctx, const CounterSpans& set);

/// Kernel: clear a frontier bitmap (O(|V|/64) stores).
void launch_clear_bitmap(sim::Device& dev, sim::LaunchTarget on,
                         sim::dspan<std::uint64_t> bitmap,
                         unsigned block_threads);

/// Kernel `xbfs_pack_levels`: one byte per vertex for the host readback —
/// levels8[v] = status[v], or kUnvisited8 when v was not reached.  Only a
/// traversal of depth <= 254 fits.  The status loads are ordinary (lanes
/// coalesce through the L2) and the stores non-temporal: the bytes are
/// write-once host data.
void launch_pack_levels(sim::Device& dev, sim::LaunchTarget on,
                        sim::dspan<const std::uint32_t> status,
                        sim::dspan<std::uint8_t> levels8,
                        unsigned block_threads);

/// Kernel: append `count` entries of `src_queue` to `dst_queue` starting at
/// `dst_offset` (used to merge the carried pending queue into the next
/// frontier).
void launch_append_queue(sim::Device& dev, sim::LaunchTarget on,
                         sim::dspan<const graph::vid_t> src_queue,
                         std::uint32_t count,
                         sim::dspan<graph::vid_t> dst_queue,
                         std::uint32_t dst_offset, unsigned block_threads);

}  // namespace xbfs::core
