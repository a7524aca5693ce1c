// DeviceMirror: a dynamic graph's DeltaCsr on one device (docs/dynamic.md),
// the adjacency every dynamic device engine on that device reads.
//
// The flat base CSR is uploaded once per base_version (re-uploaded after
// compact()), deletions are patched in place as graph::kTombstone
// sentinels in the cols array (revived by writing the original vertex id
// back) by one dyn_apply_patch launch, and the insert overlay is a small
// sorted (vertex, offset, cols) triple uploaded per epoch.  Engines read it
// through graph::DeviceAdjacency, the view flat graphs use too.  A serving
// GCD owns one mirror, so BFS and CC over the same store upload the base
// once per device, not once per kind.
#pragma once

#include <cstdint>
#include <unordered_set>

#include "dyn/graph_store.h"
#include "graph/device_csr.h"
#include "hipsim/device.h"
#include "obs/stat_table.h"

namespace xbfs::dyn {

/// Mirror stats (relaxed handles: stats() may be read while another thread
/// runs an engine over the mirror).  Modelled time is counted in whole
/// microseconds per run so every handle stays a lock-free counter.
#define XBFS_DYN_ENGINE_STATS(COUNTER, HISTOGRAM, VALUE, REPORT)               \
  COUNTER(runs, "runs", None, "device runs over the mirror (BFS and CC)")      \
  COUNTER(device_syncs, "syncs", None, "device-mirror epoch syncs")            \
  COUNTER(full_uploads, "uploads", None, "base re-uploads")                    \
  COUNTER(patched_entries, "entries", None, "in-place mirror writes")          \
  COUNTER(run_us, "us", Modelled, "device time summed over runs, sync incl.")  \
  VALUE(double, run_ms, "run_ms", Derived, "ms", Modelled, "run_us / 1000",    \
        static_cast<double>(s.run_us) / 1000.0)

struct DynEngineStats {
  XBFS_STAT_FIELDS(XBFS_DYN_ENGINE_STATS)
};

class DeviceMirror {
 public:
  /// `block_threads` sizes the patch launch.  Nothing is uploaded until the
  /// first sync(); csr().n is |V| from the start, so engines can size their
  /// buffers.
  DeviceMirror(sim::Device& dev, GraphStore& store, unsigned block_threads);

  DeviceMirror(const DeviceMirror&) = delete;
  DeviceMirror& operator=(const DeviceMirror&) = delete;

  /// Start one engine run over the mirror: count it, and bring the device
  /// copy to the store's current snapshot, which it returns.  Not
  /// reentrant — callers serialize runs per device, as the serving ladder
  /// does under the GCD lock.
  const Snapshot& sync();
  /// The snapshot the last sync() mirrored (valid under the same
  /// serialization as sync()).
  const Snapshot& served() const { return snap_; }

  const graph::DeviceCsr& csr() const { return csr_; }
  sim::Device& device() const { return dev_; }

  /// Charge a finished run's modelled device time, its sync included.
  void charge(double total_ms);
  DynEngineStats stats() const;

 private:
  sim::Device& dev_;
  GraphStore& store_;
  unsigned block_threads_;
  Snapshot snap_;

  graph::DeviceCsr csr_;
  sim::DeviceBuffer<graph::eid_t> d_patch_idx_;
  sim::DeviceBuffer<graph::vid_t> d_patch_val_;
  /// Base-cols indices currently holding the kTombstone sentinel on the
  /// device (diffed against the snapshot's tombstones per sync).
  std::unordered_set<graph::eid_t> device_tombs_;
  std::uint64_t synced_base_version_ = 0;
  std::uint64_t synced_epoch_ = 0;
  bool synced_once_ = false;

  struct Handles {
    XBFS_STAT_HANDLES(XBFS_DYN_ENGINE_STATS)
  };
  Handles stat_;
};

}  // namespace xbfs::dyn
