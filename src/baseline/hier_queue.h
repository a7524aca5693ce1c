// Hierarchical-queue BFS baseline (Luo, Wong, Hwu DAC'10 — paper Sec. II):
// each block accumulates discovered vertices in a small LDS-resident queue
// and flushes it to the global frontier in bulk.  "Performs well at levels
// with very few frontiers but suffers from enormous space consumption and
// inefficient strided memory access at levels with substantial frontiers"
// — both effects emerge from the simulation: the per-block queues overflow
// into global spill regions and the flush pattern is strided.
#pragma once

#include <cstdint>

#include "core/xbfs.h"
#include "graph/device_csr.h"
#include "hipsim/device.h"

namespace xbfs::baseline {

struct HierQueueConfig {
  unsigned block_queue_capacity = 1024;  ///< LDS entries per block
};

class HierQueueBfs final : public core::TraversalEngine {
 public:
  HierQueueBfs(sim::Device& dev, const graph::DeviceCsr& g,
               HierQueueConfig cfg = {});

  core::BfsResult run(graph::vid_t src) override;

  const char* name() const override { return "hier-queue"; }
  core::EngineCapabilities capabilities() const override {
    return {.on_device = true};
  }

 private:
  sim::Device& dev_;
  const graph::DeviceCsr& g_;
  HierQueueConfig cfg_;
  sim::DeviceBuffer<std::uint32_t> status_;
  sim::DeviceBuffer<graph::vid_t> frontier_a_;
  sim::DeviceBuffer<graph::vid_t> frontier_b_;
  sim::DeviceBuffer<std::uint32_t> counters_;  // [0]=next tail
};

}  // namespace xbfs::baseline
