// Connected components on the simulated GPU: min-label propagation with
// pointer-jumping shortcuts (the classic Shiloach-Vishkin-style GPU shape).
//
// Every vertex starts labeled with its own id; each round hooks every edge
// (atomicMin both endpoints toward the smaller label) and then compresses
// label chains by pointer jumping (label[v] = root of label[v]), so long
// paths converge in O(log diameter) rounds instead of O(diameter).  Labels
// only ever decrease — the same decrease-only fixpoint contract as BFS
// levels and SSSP distances — and the fixpoint labels every vertex with
// the smallest vertex id of its component, which is exactly
// graph::canonical_components: conformance is exact equality.
//
// The hook reads adjacency through graph::DeviceAdjacency, so the engine
// runs over a flat DeviceCsr and over a dynamic graph's device mirror
// (dyn::DeviceMirror) alike; on a flat graph it issues the flat CSR's
// loads.
#pragma once

#include <cstdint>

#include "core/algorithm_engine.h"
#include "graph/device_csr.h"
#include "hipsim/device.h"

namespace xbfs::algos {

struct CcEngineConfig {
  unsigned block_threads = 256;
};

class LpCcEngine final : public core::AlgorithmEngine {
 public:
  LpCcEngine(sim::Device& dev, const graph::DeviceCsr& g,
             CcEngineConfig cfg = {});

  core::AlgoKind kind() const override { return core::AlgoKind::Cc; }
  core::AlgoResult solve(const core::AlgoQuery& q) override;
  const char* name() const override { return "lp-cc"; }
  core::EngineCapabilities capabilities() const override {
    return {.on_device = true};
  }

 private:
  sim::Device& dev_;
  const graph::DeviceCsr& g_;
  CcEngineConfig cfg_;
  sim::DeviceBuffer<graph::vid_t> label_;
  sim::DeviceBuffer<std::uint32_t> counters_;  ///< [0]=hooks that improved
};

}  // namespace xbfs::algos
