// Concurrent multi-source BFS (iBFS-style, Liu et al. SIGMOD'16 — cited by
// the paper as a consumer of fast BFS): up to 64 searches share one
// traversal by carrying a 64-bit reachability mask per vertex, so one
// memory sweep advances every search at once.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/device_csr.h"
#include "hipsim/device.h"

namespace xbfs::algos {

struct MultiBfsResult {
  /// levels[s][v]: hop distance from sources[s] to v (-1 unreached).
  std::vector<std::vector<std::int32_t>> levels;
  double total_ms = 0.0;
  std::uint32_t depth = 0;  ///< deepest level over all searches
};

/// Hard batch width of one bit-parallel sweep (one reachability bit per
/// search in a 64-bit mask).
inline constexpr unsigned kMaxConcurrentSources = 64;

/// Run up to 64 BFS searches concurrently on the simulated device.
MultiBfsResult multi_source_bfs(sim::Device& dev, const graph::DeviceCsr& g,
                                const std::vector<graph::vid_t>& sources);

/// Any number of sources: splits the input into consecutive sweeps of at
/// most kMaxConcurrentSources and concatenates the per-source levels in
/// input order (duplicates allowed; each occurrence gets its own levels
/// vector).  total_ms sums the sweeps, depth is the max over sweeps.
MultiBfsResult multi_source_bfs_batched(
    sim::Device& dev, const graph::DeviceCsr& g,
    const std::vector<graph::vid_t>& sources);

/// iBFS's GroupBy heuristic: order sources so that batches of `group_size`
/// share as much traversal as possible — sources whose early frontiers
/// overlap (here approximated by shared/adjacent neighborhoods) land in the
/// same group, maximizing the bit-parallel sharing of multi_source_bfs.
///
/// Repeated sources are deduplicated (first occurrence wins — serving
/// workloads hammer hot sources, and a duplicate inside one sweep wastes a
/// mask bit), so the result may be shorter than the input.  `group_size` is
/// clamped to [1, kMaxConcurrentSources]: a larger group could never be
/// dispatched in one sweep.
std::vector<graph::vid_t> group_sources(const graph::Csr& g,
                                        std::vector<graph::vid_t> sources,
                                        unsigned group_size = 64);

}  // namespace xbfs::algos
