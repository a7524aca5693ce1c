// The distributed direction-optimizing BFS over a ShardedStore: every
// multi-GCD traversal in the repository (the router's routed sweeps and
// the bench's scaling study) runs here.  Graph500-style 1D row
// partitioning: every shard holds the full adjacency of its owned vertex
// range plus a global frontier bitmap.  Per level:
//
//   top-down  — owned frontier vertices expand, marking neighbour
//               candidate bits; candidates travel to their owners, owners
//               claim unvisited ones and broadcast the cleaned slice;
//   bottom-up — owned unvisited vertices probe the local copy of the
//               global frontier with early termination, so only the
//               cleaned broadcast is needed (no candidate exchange).
//
// The direction choice reuses the XBFS alpha policy on the global
// frontier-edge count, which each owner's cleaned slice carries with it
// (the slice header's set count plus an 8-byte claimed-degree sum), so no
// separate collective is needed for it.
//
// A run is one multi-device cooperative launch over the live replicas
// (sim::Device::launch_grid, hipsim/grid.h): the kernels above are grid
// phases, each exchange is an in-kernel cross-device step between them
// (MultiGridCtx::exchange), and every replica reads the direction and
// termination from the claim totals the cleaned broadcast writes into its
// memory.  Per replica a run costs one launch, one status-gather copy and
// one host wait at any depth.  On top of that phase structure:
//
//   * plan-driven execution — the router hands run() one replica index per
//     shard; kLost marks a shard with no healthy replica, whose vertex
//     range simply never participates.  The result is then exactly BFS on
//     the subgraph with the lost shards' vertices removed (partial=true,
//     lost ranges stay -1), which is what lets the router degrade instead
//     of fail.  An all-live plan over one replica is plain distributed BFS.
//   * compressed frontier exchange — candidate and cleaned slices travel
//     bitmap- or delta-varint-encoded (shard/frontier_codec.h), and the
//     modelled fabric is charged the encoded bytes, not the raw bitmap.
//   * 2D promotion for exchange-heavy levels — when the layout's grid has
//     more than one column, each top-down exchange is priced both flat
//     (one collective over all live shards) and two-phase (candidates
//     within grid-column groups, cleaned broadcast along grid rows — the
//     Buluc/Beamer 2D pattern with sqrt(p)-sized groups) and the cheaper
//     form is charged; ShardLevelStats::two_phase records the choice.
//
// A kernel fault on any replica surfaces, when the launch ends, as
// ShardSweepFault naming the (shard, replica) slot so the router can
// penalize exactly that breaker and reroute.  Under XBFS_TRACE each run
// emits modelled-clock level spans on the coordinator lane (pid 0); each
// replica's phases and exchanges land in its own device lane.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/csr.h"
#include "obs/run_report.h"
#include "shard/sharded_store.h"

namespace xbfs::shard {

struct ShardSweepConfig {
  double alpha = 0.1;  ///< bottom-up threshold on the global frontier ratio
};

struct ShardLevelStats {
  std::uint32_t level = 0;
  bool bottom_up = false;
  bool two_phase = false;  ///< 2D-promoted exchange was the cheaper form
  std::uint64_t frontier_count = 0;
  std::uint64_t frontier_edges = 0;
  double ratio = 0.0;
  double local_ms = 0.0;  ///< level time outside the collectives: the
                          ///< slowest replica's phases and grid barriers
  double comm_ms = 0.0;   ///< modelled collective time
  std::uint64_t raw_bytes = 0;   ///< uncompressed exchange payload
  std::uint64_t wire_bytes = 0;  ///< encoded payload the fabric was charged
};

struct ShardSweepResult {
  std::vector<std::int32_t> levels;  ///< global; -1 unreached or lost range
  std::vector<ShardLevelStats> level_stats;
  double total_ms = 0.0;  ///< the launch through the gather and its wait
  double comm_ms = 0.0;
  std::uint64_t edges_traversed = 0;
  double gteps = 0.0;
  std::uint32_t depth = 0;
  std::uint64_t raw_bytes = 0;
  std::uint64_t wire_bytes = 0;
  unsigned shards_live = 0;
  unsigned shards_lost = 0;
  bool partial = false;  ///< any shard was lost: lost ranges are all -1
};

/// An injected device fault inside the sweep, tagged with the slot that
/// faulted so the router can penalize and reroute precisely.
class ShardSweepFault : public std::runtime_error {
 public:
  ShardSweepFault(unsigned shard, unsigned replica, const std::string& what)
      : std::runtime_error(what), shard_(shard), replica_(replica) {}
  unsigned shard() const { return shard_; }
  unsigned replica() const { return replica_; }

 private:
  unsigned shard_;
  unsigned replica_;
};

class ShardSweep {
 public:
  static constexpr int kLost = -1;

  /// The store must outlive the sweep.  The sweep itself holds no device
  /// state — everything lives in the store's replicas, so one sweep object
  /// may be reused across runs and plans.
  explicit ShardSweep(ShardedStore& store, ShardSweepConfig cfg = {});

  /// Run one source through the plan (`plan[s]` = replica index for shard
  /// s, or kLost).  The caller owns the chosen replicas' locks for the
  /// duration (ShardedStore::Replica::mu) — the sweep does not lock.
  /// Throws std::invalid_argument when the source is out of range, the
  /// plan is malformed or the source's owner shard is lost (no meaningful
  /// result exists), and ShardSweepFault on an injected device fault.
  ShardSweepResult run(graph::vid_t src, const std::vector<int>& plan);

  /// The run-report record of one run (tool "shard_sweep"): one row per
  /// level with time split into local and comm.  Direct callers (the
  /// scaling study) add it per run; the router reports only its summary.
  obs::RunRecord run_record(graph::vid_t src,
                            const ShardSweepResult& r) const;

 private:
  ShardedStore& store_;
  ShardSweepConfig cfg_;
  std::size_t words_;
};

}  // namespace xbfs::shard
