// Gunrock-style edge-frontier filtering BFS (the paper's Fig. 8 baseline).
//
// Level-synchronous advance/filter: `advance` gathers every neighbor of the
// vertex frontier into an *edge frontier* (no atomic claim, so duplicates
// survive), `filter` marks unvisited entries and compacts them into the next
// vertex frontier.  This is the design whose "excessive space consumption
// and duplicated frontiers at high-frontier levels" XBFS improves on
// (Sec. II) — both costs are reproduced faithfully here.
#pragma once

#include <cstdint>
#include <vector>

#include "core/xbfs.h"  // reuses BfsResult/LevelStats telemetry types
#include "graph/device_csr.h"
#include "hipsim/device.h"

namespace xbfs::baseline {

class GunrockLikeBfs final : public core::TraversalEngine {
 public:
  /// Allocates the O(|E|) edge-frontier buffers up front (the space cost
  /// the paper calls out).
  GunrockLikeBfs(sim::Device& dev, const graph::DeviceCsr& g);

  core::BfsResult run(graph::vid_t src) override;

  const char* name() const override { return "gunrock-like"; }
  core::EngineCapabilities capabilities() const override {
    return {.on_device = true};
  }

 private:
  sim::Device& dev_;
  const graph::DeviceCsr& g_;
  sim::DeviceBuffer<std::uint32_t> status_;
  sim::DeviceBuffer<graph::vid_t> vertex_frontier_a_;
  sim::DeviceBuffer<graph::vid_t> vertex_frontier_b_;
  sim::DeviceBuffer<graph::vid_t> edge_frontier_;
  sim::DeviceBuffer<std::uint32_t> counters_;  // [0]=edge tail, [1]=vertex tail
};

}  // namespace xbfs::baseline
