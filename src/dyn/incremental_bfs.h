// IncrementalBfs: BFS over a dynamic graph (docs/dynamic.md), the
// dynamic-graph TraversalEngine.
//
// Every run is a sync of the device's DeviceMirror plus one core::Xbfs
// traversal of it, under the full adaptive policy and the configured
// stream mode.  Xbfs reads the mirror through graph::DeviceAdjacency, the
// view flat graphs use too, so static and dynamic BFS share every strategy
// kernel.  A same-epoch run costs what a static Xbfs run costs: one
// launch, one sync and one copy (two past a depth of 64).
#pragma once

#include "core/algorithm_engine.h"
#include "core/config.h"
#include "core/xbfs.h"
#include "dyn/device_mirror.h"

namespace xbfs::dyn {

class IncrementalBfs final : public core::TraversalEngine {
 public:
  /// `cfg` configures the Xbfs traversal (its report_runs and
  /// build_parents are overridden: this engine reports its own runs and
  /// builds levels only).  Throws std::invalid_argument on an invalid
  /// config.  The mirror must outlive the engine.
  explicit IncrementalBfs(DeviceMirror& mirror, core::XbfsConfig cfg = {});

  /// Canonical hop distances from `src` on the store's current snapshot.
  /// Not reentrant (device buffers are reused) — callers serialize runs
  /// per device, as the serving ladder does.
  core::BfsResult run(graph::vid_t src) override;

  const char* name() const override { return "incremental"; }
  core::EngineCapabilities capabilities() const override {
    return {.on_device = true, .adaptive = true, .builds_parents = false};
  }

  /// The mirror's stats: every device run over it, this engine's and any
  /// other engine's sharing the mirror.
  DynEngineStats stats() const { return mirror_.stats(); }

 private:
  DeviceMirror& mirror_;
  core::XbfsConfig cfg_;
  core::Xbfs xbfs_;  ///< over mirror_.csr()
};

}  // namespace xbfs::dyn
