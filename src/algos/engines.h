// AlgorithmEngine promotions and the builtin registry population.
//
// BcEngine / SccEngine wrap the free-function entry points of algos/bc.h
// and algos/scc.h behind the typed engine interface, and
// register_builtin_engines() registers every engine the repository ships —
// the XBFS/baseline BFS family, the PR 8 device engines (delta-SSSP,
// label-propagation CC, pull k-core), these wrappers, and one fault-immune
// host oracle per kind (graph/reference) — into
// core::EngineRegistry::global().  The serving layer, examples, and the
// conformance suite all resolve engines through that one table.
#pragma once

#include <cstdint>
#include <memory>

#include "algos/bc.h"
#include "algos/scc.h"
#include "core/algorithm_engine.h"
#include "graph/csr.h"
#include "graph/device_csr.h"
#include "hipsim/device.h"

namespace xbfs::algos {

/// Single-source Brandes contribution behind the engine interface: solve()
/// accumulates the dependency scores of q.source alone (batched multi-
/// source BC remains a direct betweenness_centrality call).
class BcEngine final : public core::AlgorithmEngine {
 public:
  BcEngine(sim::Device& dev, const graph::DeviceCsr& g);

  core::AlgoKind kind() const override { return core::AlgoKind::Bc; }
  core::AlgoResult solve(const core::AlgoQuery& q) override;
  const char* name() const override { return "brandes-bc"; }
  core::EngineCapabilities capabilities() const override {
    return {.on_device = true};
  }

 private:
  sim::Device& dev_;
  const graph::DeviceCsr& g_;
};

/// FW-BW SCC behind the engine interface.  The constructor materializes
/// and uploads the transpose (graph::reverse_csr) once; solve() runs the
/// whole-graph partition (q.source is ignored).
class SccEngine final : public core::AlgorithmEngine {
 public:
  SccEngine(sim::Device& dev, const graph::Csr& host_g,
            const graph::DeviceCsr& fwd);

  core::AlgoKind kind() const override { return core::AlgoKind::Scc; }
  core::AlgoResult solve(const core::AlgoQuery& q) override;
  const char* name() const override { return "fwbw-scc"; }
  core::EngineCapabilities capabilities() const override {
    return {.on_device = true};
  }

 private:
  sim::Device& dev_;
  const graph::DeviceCsr& fwd_;
  graph::DeviceCsr bwd_;
};

/// Populate core::EngineRegistry::global() with every builtin engine.
/// Idempotent and thread-safe; call before resolving engines (the serving
/// engine, examples, and tests all do).
void register_builtin_engines();

}  // namespace xbfs::algos
