// k-core decomposition on the simulated GPU: pull-based trim following the
// katana `kcore_pull` structure (SNIPPETS.md Snippet 3).
//
// Vertices peel in rounds of increasing k.  Within a round, a mark kernel
// kills every live vertex whose current degree fell below k (recording its
// coreness, k-1), and a pull kernel — the katana LiveUpdate/KCore shape —
// has every survivor gather how many of its neighbors just died and trim
// its current degree by that count; the flags are then cleared and the
// round repeats until the k-core is stable.  All inter-kernel
// communication is level-synchronous (owner-written flags read after the
// kernel boundary), so no kernel needs a racy_ok annotation.
//
// AlgoParams::k selects the mode: k == 0 computes the full decomposition
// (payload cores[v] = coreness), k > 0 computes membership (cores[v] = 1
// iff v survives the k-core trim).
#pragma once

#include <cstdint>

#include "core/algorithm_engine.h"
#include "graph/device_csr.h"
#include "hipsim/device.h"

namespace xbfs::algos {

class KCorePullEngine final : public core::AlgorithmEngine {
 public:
  KCorePullEngine(sim::Device& dev, const graph::DeviceCsr& g);

  core::AlgoKind kind() const override { return core::AlgoKind::KCore; }
  core::AlgoResult solve(const core::AlgoQuery& q) override;
  const char* name() const override { return "kcore-pull"; }
  core::EngineCapabilities capabilities() const override {
    return {.on_device = true};
  }

 private:
  sim::Device& dev_;
  const graph::DeviceCsr& g_;
  sim::DeviceBuffer<std::uint32_t> deg_;       ///< current (trimmed) degree
  sim::DeviceBuffer<std::uint8_t> alive_;
  sim::DeviceBuffer<std::uint8_t> just_died_;  ///< katana pull_flag
  sim::DeviceBuffer<std::uint32_t> core_;
  sim::DeviceBuffer<std::uint32_t> counters_;  ///< [0]=removed, [1]=alive, [2]=trim edges
};

}  // namespace xbfs::algos
