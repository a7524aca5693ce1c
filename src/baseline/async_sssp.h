// SSSP-style asynchronous BFS baseline (paper Sec. II): treating BFS as
// unit-weight SSSP removes level synchronization — any vertex whose
// tentative distance improves re-relaxes its neighbors — at the price of
// redundant re-visits across iterations, the overhead SIMD-X identified as
// the reason SSSP-based traversal loses to level-synchronous BFS.
//
// The simulation runs Bellman-Ford-style rounds (each round one kernel, no
// frontier, atomicMin distance updates) until a fixed point; the profiler
// exposes the redundant-relaxation count the paper's argument rests on.
#pragma once

#include <cstdint>

#include "core/xbfs.h"
#include "graph/device_csr.h"
#include "hipsim/device.h"

namespace xbfs::baseline {

class AsyncSsspBfs final : public core::TraversalEngine {
 public:
  AsyncSsspBfs(sim::Device& dev, const graph::DeviceCsr& g);

  core::BfsResult run(graph::vid_t src) override;
  const char* name() const override { return "async-sssp"; }
  core::EngineCapabilities capabilities() const override {
    return {.on_device = true};
  }

  /// Edge relaxations performed by the last run (>= edges reached; the
  /// excess is the redundant work of the asynchronous formulation).
  std::uint64_t last_relaxations() const { return last_relaxations_; }

 private:
  sim::Device& dev_;
  const graph::DeviceCsr& g_;
  sim::DeviceBuffer<std::uint32_t> dist_;
  sim::DeviceBuffer<std::uint8_t> dirty_;  ///< vertex improved last round
  sim::DeviceBuffer<std::uint32_t> counters_;  // [0]=changed, [1..2]=relaxations lo/hi
  std::uint64_t last_relaxations_ = 0;
};

}  // namespace xbfs::baseline
