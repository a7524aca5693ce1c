// Host-side ground truth for dynamic graphs: serial BFS over a DeltaCsr,
// the Graph500-style level validator the dynamic serving path uses, and
// the fault-immune host TraversalEngine that terminates the dynamic
// degradation ladder (the DeltaCsr analogue of baseline::CpuBfsEngine).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/algorithm_engine.h"
#include "dyn/delta_csr.h"
#include "dyn/graph_store.h"

namespace xbfs::dyn {

/// Serial queue BFS over the live (base - tombstones + extras) edge set;
/// levels[v] = hops from src, -1 unreached.
std::vector<std::int32_t> reference_bfs(const DeltaCsr& g, graph::vid_t src);

/// Complete level-assignment oracle over a DeltaCsr (same rules as
/// graph::validate_bfs_levels): level[src]==0, reachability matches a
/// fresh host BFS, every live edge spans at most one level, and every
/// level-k>0 vertex has a level k-1 neighbor.  Empty string when valid.
std::string validate_levels(const DeltaCsr& g, graph::vid_t src,
                            const std::vector<std::int32_t>& levels);

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
