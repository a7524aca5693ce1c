#include "dyn/delta_ref.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "graph/reference.h"

namespace xbfs::dyn {

using graph::vid_t;

std::vector<std::int32_t> reference_bfs(const DeltaCsr& g, vid_t src) {
  return graph::reference_bfs(g, src);
}

core::AlgoResult HostDeltaEngine::solve_on(const Snapshot& snap,
                                           const core::AlgoQuery& q) const {
  const auto t0 = std::chrono::steady_clock::now();
  core::AlgoResult r;
  r.payload.kind = kind_;
  if (kind_ == core::AlgoKind::Cc) {
    r.payload.components = std::make_shared<const std::vector<vid_t>>(
        graph::canonical_components(*snap.graph));
  } else {
    std::vector<std::int32_t> levels = reference_bfs(*snap.graph, q.source);
    std::int32_t max_level = 0;
    for (const std::int32_t l : levels) max_level = std::max(max_level, l);
    r.payload.depth = static_cast<std::uint32_t>(max_level) + 1;
    r.payload.levels =
        std::make_shared<const std::vector<std::int32_t>>(std::move(levels));
  }
  r.total_ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  return r;
}

}  // namespace xbfs::dyn
