// Host-side ground truth for dynamic graphs: serial BFS over a DeltaCsr
// and the fault-immune host engine that terminates the dynamic degradation
// ladder (the DeltaCsr analogue of the registry's host oracles).  Levels
// and labels over a DeltaCsr are validated by the same templated
// graph::validate_levels_graph500 and graph::validate_components the
// static path uses.
#pragma once

#include <cstdint>
#include <vector>

#include "core/algorithm_engine.h"
#include "dyn/delta_csr.h"
#include "dyn/graph_store.h"
#include "graph/g500_validate.h"

namespace xbfs::dyn {

/// Serial queue BFS over the live (base - tombstones + extras) edge set
/// (graph::reference_bfs over the DeltaCsr); levels[v] = hops from src,
/// -1 unreached.
std::vector<std::int32_t> reference_bfs(const DeltaCsr& g, graph::vid_t src);

/// Host oracle over the store's *current* snapshot: the terminal rung of
/// the dynamic serving ladder for `kind` Bfs (reference_bfs) or Cc
/// (graph::canonical_components).  Stateless across runs (safe to call
/// from multiple worker lanes) and immune to injected device faults.
class HostDeltaEngine final : public core::AlgorithmEngine {
 public:
  HostDeltaEngine(GraphStore& store, core::AlgoKind kind)
      : store_(store), kind_(kind) {}

  core::AlgoKind kind() const override { return kind_; }
  core::AlgoResult solve(const core::AlgoQuery& q) override {
    return solve_on(store_.snapshot(), q);
  }
  /// Same oracle pinned to one snapshot (the serving path validates and
  /// caches against the exact graph it served).
  core::AlgoResult solve_on(const Snapshot& snap,
                            const core::AlgoQuery& q) const;

  const char* name() const override {
    return kind_ == core::AlgoKind::Bfs ? "cpu-delta" : "cpu-delta-cc";
  }
  core::EngineCapabilities capabilities() const override { return {}; }

 private:
  GraphStore& store_;
  core::AlgoKind kind_;
};

}  // namespace xbfs::dyn
