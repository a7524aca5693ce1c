// IncrementalBfs: BFS over a dynamic graph (docs/dynamic.md), the
// dynamic-graph TraversalEngine.
//
// Every run is a device-mirror sync plus one core::Xbfs traversal of the
// mirror, under the full adaptive policy and the configured stream mode.
// The mirror is the DeltaCsr on the device, patched incrementally: the
// flat base CSR is uploaded once per base_version (re-uploaded after
// compact()), deletions are patched in place as graph::kTombstone
// sentinels in the cols array (revived by writing the original vertex id
// back) by one dyn_apply_patch launch, and the insert overlay is a small
// sorted (vertex, offset, cols) triple uploaded per epoch.  Xbfs reads it
// through graph::DeviceAdjacency, the view flat graphs use too, so static
// and dynamic BFS share every strategy kernel.  A same-epoch run costs
// what a static Xbfs run costs: one launch, one sync and two copies.
#pragma once

#include <cstdint>
#include <unordered_set>

#include "core/algorithm_engine.h"
#include "core/config.h"
#include "core/xbfs.h"
#include "dyn/graph_store.h"
#include "graph/device_csr.h"
#include "hipsim/device.h"
#include "obs/stat_table.h"

namespace xbfs::dyn {

/// Engine stats (relaxed handles: stats() may be read while another thread
/// is inside run()).  Modelled time is counted in whole microseconds per
/// run so every handle stays a lock-free counter.
#define XBFS_DYN_ENGINE_STATS(COUNTER, HISTOGRAM, VALUE, REPORT)               \
  COUNTER(runs, "runs", None, "run() calls")                                   \
  COUNTER(device_syncs, "syncs", None, "device-mirror epoch syncs")            \
  COUNTER(full_uploads, "uploads", None, "base re-uploads")                    \
  COUNTER(patched_entries, "entries", None, "in-place mirror writes")          \
  COUNTER(run_us, "us", Modelled, "device time summed over runs, sync incl.")  \
  VALUE(double, run_ms, "run_ms", Derived, "ms", Modelled, "run_us / 1000",    \
        static_cast<double>(s.run_us) / 1000.0)

struct DynEngineStats {
  XBFS_STAT_FIELDS(XBFS_DYN_ENGINE_STATS)
};

class IncrementalBfs final : public core::TraversalEngine {
 public:
  /// `cfg` configures the Xbfs traversal (its report_runs and
  /// build_parents are overridden: this engine reports its own runs and
  /// builds levels only).  Throws std::invalid_argument on an invalid
  /// config.
  IncrementalBfs(sim::Device& dev, GraphStore& store,
                 core::XbfsConfig cfg = {});

  /// Canonical hop distances from `src` on the store's current snapshot.
  /// Not reentrant (device buffers are reused) — callers serialize runs
  /// per engine, as the serving ladder does.
  core::BfsResult run(graph::vid_t src) override;

  const char* name() const override { return "incremental"; }
  core::EngineCapabilities capabilities() const override {
    return {.on_device = true, .adaptive = true, .builds_parents = false};
  }

  DynEngineStats stats() const;
  /// The snapshot the last run() traversed (valid under the same
  /// serialization as run(); the serving path reads it while still holding
  /// the per-GCD lock).
  const Snapshot& served() const { return snap_; }

 private:
  void sync_device(const Snapshot& snap);

  sim::Device& dev_;
  GraphStore& store_;
  core::XbfsConfig cfg_;
  Snapshot snap_;  ///< last synced/served snapshot

  graph::DeviceCsr mirror_;
  sim::DeviceBuffer<graph::eid_t> d_patch_idx_;
  sim::DeviceBuffer<graph::vid_t> d_patch_val_;
  /// Base-cols indices currently holding the kTombstone sentinel on the
  /// device (diffed against the snapshot's tombstones per sync).
  std::unordered_set<graph::eid_t> device_tombs_;
  std::uint64_t synced_base_version_ = 0;
  std::uint64_t synced_epoch_ = 0;
  bool synced_once_ = false;

  core::Xbfs xbfs_;  ///< over mirror_

  struct Handles {
    XBFS_STAT_HANDLES(XBFS_DYN_ENGINE_STATS)
  };
  Handles stat_;
};

}  // namespace xbfs::dyn
