// Enterprise-style scan BFS baseline: every level scans the full status
// array for current-level vertices and expands them in place — no frontier
// queue at all.  O(|V|) per level regardless of frontier size, which is
// exactly the overhead XBFS's scan-free strategy removes at sparse levels
// (paper Sec. II, "Scan Approach").
#pragma once

#include <cstdint>

#include "core/xbfs.h"
#include "graph/device_csr.h"
#include "hipsim/device.h"

namespace xbfs::baseline {

class SimpleScanBfs final : public core::TraversalEngine {
 public:
  SimpleScanBfs(sim::Device& dev, const graph::DeviceCsr& g);

  core::BfsResult run(graph::vid_t src) override;

  const char* name() const override { return "simple-scan"; }
  core::EngineCapabilities capabilities() const override {
    return {.on_device = true};
  }

 private:
  sim::Device& dev_;
  const graph::DeviceCsr& g_;
  sim::DeviceBuffer<std::uint32_t> status_;
  sim::DeviceBuffer<std::uint32_t> counters_;  // [0] = newly visited
};

}  // namespace xbfs::baseline
