#include "dyn/delta_ref.h"

#include <algorithm>
#include <chrono>

namespace xbfs::dyn {

using graph::vid_t;

std::vector<std::int32_t> reference_bfs(const DeltaCsr& g, vid_t src) {
  return graph::reference_bfs(g, src);
}

core::BfsResult HostDeltaBfs::run_on(const Snapshot& snap, vid_t src) const {
  const auto t0 = std::chrono::steady_clock::now();
  core::BfsResult r;
  r.levels = reference_bfs(*snap.graph, src);
  std::int32_t max_level = 0;
  std::uint64_t reached_degree = 0;
  for (vid_t v = 0; v < snap.graph->num_vertices(); ++v) {
    if (r.levels[v] < 0) continue;
    max_level = std::max(max_level, r.levels[v]);
    reached_degree += snap.graph->degree(v);
  }
  r.depth = static_cast<std::uint32_t>(max_level) + 1;
  r.edges_traversed = reached_degree / 2;
  r.total_ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  r.gteps = core::safe_gteps(r.edges_traversed, r.total_ms);
  return r;
}

}  // namespace xbfs::dyn
