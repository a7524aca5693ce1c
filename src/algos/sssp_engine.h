// Delta-stepping SSSP on the simulated GPU — the weighted generalization
// of the paper's frontier machinery (PAPERS.md delta-stepping framing).
//
// Distances advance bucket by bucket (bucket width = AlgoParams::delta, 0
// = auto): within a bucket the engine relaxes to a fixed point before the
// bucket is declared settled, which is the same decrease-only fixpoint
// structure as BFS with the level barrier widened to `delta`.  Each inner
// iteration picks push (dirty vertices scatter atomicMin updates, the
// async_sssp shape) or pull (every vertex gathers its best tentative
// distance from its neighbors) by the paper's r-vs-alpha rule on the
// active frontier's edge ratio — bottom-up gathers win exactly when the
// in-bucket frontier saturates the graph.
//
// Edge weights are synthetic and deterministic (graph::synth_weight over
// AlgoParams::{weight_seed, max_weight}): the CSR stays unweighted, and
// the host Dijkstra oracle derives identical weights, so conformance is
// exact equality on distances.
#pragma once

#include <cstdint>

#include "core/algorithm_engine.h"
#include "graph/device_csr.h"
#include "hipsim/device.h"

namespace xbfs::algos {

class DeltaSsspEngine final : public core::AlgorithmEngine {
 public:
  /// `alpha` is the pull threshold on (active frontier edges)/|E| — the
  /// r-vs-alpha rule.
  DeltaSsspEngine(sim::Device& dev, const graph::DeviceCsr& g,
                  double alpha = 0.1);

  core::AlgoKind kind() const override { return core::AlgoKind::Sssp; }
  core::AlgoResult solve(const core::AlgoQuery& q) override;
  const char* name() const override { return "delta-sssp"; }
  core::EngineCapabilities capabilities() const override {
    return {.on_device = true, .adaptive = true};
  }

  /// Edge relaxations performed by the last solve().
  std::uint64_t last_relaxations() const { return last_relaxations_; }

 private:
  sim::Device& dev_;
  const graph::DeviceCsr& g_;
  double alpha_;
  sim::DeviceBuffer<std::uint32_t> dist_;
  sim::DeviceBuffer<std::uint8_t> dirty_;  ///< improved since last relaxation
  /// [0]=active in-bucket count, [1]=their edges, [2]=relaxations,
  /// [3]=min dirty distance (next-bucket probe).
  sim::DeviceBuffer<std::uint32_t> counters_;
  std::uint64_t last_relaxations_ = 0;
};

}  // namespace xbfs::algos
