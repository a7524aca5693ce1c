// Public API of the XBFS reproduction: adaptive BFS on the simulated GPU.
//
// In the default StreamMode::Single a traversal is one cooperative launch
// (hipsim/grid.h): init, every level's strategy kernels as grid phases, the
// direction policy evaluated by every block between levels, and a last
// phase that packs the levels into one byte per vertex.  One copy then
// reads back the per-level rows of the first 64 levels with those bytes
// (and the parents); a traversal deeper than 64 levels pays a second copy
// for the rest of its rows, and one deeper than 254 levels reads the
// 4-byte status there instead of the bytes.  StreamMode::TripleBinned keeps
// the CUDA design's host loop, one round trip per level.
//
// The kernels read the graph through graph::DeviceAdjacency, so the same
// engine traverses a flat DeviceCsr and the dyn::DeviceMirror of a dynamic
// graph (tombstoned base rows plus an insert overlay).
//
// Usage:
//   sim::Device dev(sim::DeviceProfile::mi250x_gcd());
//   auto g = graph::DeviceCsr::upload(dev, host_csr);
//   core::Xbfs bfs(dev, g);
//   core::BfsResult r = bfs.run(source);
//   // r.levels, r.level_stats, r.gteps ...
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/config.h"
#include "core/frontier.h"
#include "core/policy.h"
#include "core/algorithm_engine.h"  // BfsResult/LevelStats/safe_gteps live here
#include "graph/device_csr.h"
#include "hipsim/device.h"

namespace xbfs::core {

class Xbfs final : public TraversalEngine {
 public:
  /// Buffers are sized once for the graph; run() may be called repeatedly
  /// (the n-to-n evaluation reuses one instance across sources).
  /// Throws std::invalid_argument when cfg.validate() fails.
  Xbfs(sim::Device& dev, const graph::DeviceCsr& g, XbfsConfig cfg = {});

  /// Throws std::invalid_argument when src >= |V|.
  BfsResult run(graph::vid_t src) override;

  const char* name() const override { return "xbfs"; }
  EngineCapabilities capabilities() const override {
    return {.on_device = true,
            .adaptive = cfg_.forced_strategy < 0,
            .builds_parents = cfg_.build_parents};
  }

  const XbfsConfig& config() const { return cfg_; }
  XbfsConfig& mutable_config() { return cfg_; }

 private:
  struct FrontierState;
  /// The level loop, shared by both stream modes; `Exec` issues the kernels
  /// and ends each level (host round trip or uniform device value).
  /// Returns the levels run.
  template <typename Exec>
  std::uint32_t level_loop(Exec& ex);
  void run_scanfree(sim::LaunchTarget on, const FrontierState& fs,
                    std::uint32_t level);
  void run_singlescan(sim::LaunchTarget on, const FrontierState& fs,
                      std::uint32_t level, bool skip_generation);
  void run_bottomup(sim::LaunchTarget on, const FrontierState& fs,
                    std::uint32_t level);

  sim::Device& dev_;
  const graph::DeviceCsr& g_;
  XbfsConfig cfg_;
  AdaptivePolicy policy_;
  BfsBuffers buffers_;
  /// StreamMode::Single: the device-side level log (word 0 = levels run,
  /// then two words per level).  The head holds word 0 and the first 64
  /// rows, the tail every later row; only the head rides in the one copy
  /// every traversal pays.
  sim::DeviceBuffer<std::uint64_t> log_head_;
  sim::DeviceBuffer<std::uint64_t> log_tail_;
  /// StreamMode::Single: the levels packed one byte per vertex.
  sim::DeviceBuffer<std::uint8_t> levels8_;
  sim::Stream* bin_streams_[3] = {nullptr, nullptr, nullptr};
};

}  // namespace xbfs::core
