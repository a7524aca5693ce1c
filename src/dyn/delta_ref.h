// Host-side ground truth for dynamic graphs: serial BFS over a DeltaCsr
// and the fault-immune host TraversalEngine that terminates the dynamic
// degradation ladder (the DeltaCsr analogue of baseline::CpuBfsEngine).
// Levels over a DeltaCsr are validated by the same templated
// graph::validate_levels_graph500 the static path uses.
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

/// Host CPU BFS over the store's *current* snapshot: the terminal rung of
/// the dynamic serving ladder.  Stateless across runs (safe to call from
/// multiple worker lanes) and immune to injected device faults.
class HostDeltaBfs final : public core::TraversalEngine {
 public:
  explicit HostDeltaBfs(GraphStore& store) : store_(store) {}

  core::BfsResult run(graph::vid_t src) override {
    return run_on(store_.snapshot(), src);
  }
  /// Same traversal pinned to one snapshot (the serving path validates and
  /// caches against the exact graph it served).
  core::BfsResult run_on(const Snapshot& snap, graph::vid_t src) const;

  const char* name() const override { return "cpu-delta"; }
  core::EngineCapabilities capabilities() const override { return {}; }

 private:
  GraphStore& store_;
};

}  // namespace xbfs::dyn
