#include "graph/reference.h"

#include <algorithm>
#include <queue>
#include <sstream>
#include <utility>

#include "graph/g500_validate.h"

namespace xbfs::graph {

std::vector<vid_t> largest_component_vertices(const Csr& g) {
  vid_t n_comp = 0;
  const std::vector<vid_t> comp = connected_components(g, &n_comp);
  std::vector<std::uint64_t> sizes(n_comp, 0);
  for (vid_t v = 0; v < g.num_vertices(); ++v) ++sizes[comp[v]];
  const vid_t best = static_cast<vid_t>(
      std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
  std::vector<vid_t> out;
  out.reserve(sizes[best]);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (comp[v] == best) out.push_back(v);
  }
  return out;
}

std::string validate_bfs_parents(const Csr& g, vid_t src,
                                 const std::vector<std::int32_t>& levels,
                                 const std::vector<vid_t>& parent) {
  std::ostringstream os;
  if (parent.size() != g.num_vertices()) return "parent array has wrong size";
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (levels[v] == kUnreached || v == src) continue;
    const vid_t p = parent[v];
    if (p >= g.num_vertices()) {
      os << "vertex " << v << " has out-of-range parent " << p;
      return os.str();
    }
    if (levels[p] != levels[v] - 1) {
      os << "vertex " << v << " (level " << levels[v] << ") has parent " << p
         << " at level " << levels[p];
      return os.str();
    }
    const auto nb = g.neighbors(v);
    if (std::find(nb.begin(), nb.end(), p) == nb.end()) {
      os << "parent " << p << " of vertex " << v << " is not a neighbor";
      return os.str();
    }
  }
  return {};
}

std::vector<std::uint32_t> reference_sssp(const Csr& g, vid_t src,
                                          std::uint64_t seed,
                                          std::uint32_t max_weight) {
  const vid_t n = g.num_vertices();
  std::vector<std::uint32_t> dist(n, kUnreachedW);
  if (src >= n) return dist;
  using Item = std::pair<std::uint64_t, vid_t>;  // (distance, vertex)
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  dist[src] = 0;
  heap.push({0, src});
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist[v]) continue;  // stale heap entry
    for (vid_t w : g.neighbors(v)) {
      const std::uint64_t cand = d + synth_weight(v, w, seed, max_weight);
      if (cand < dist[w]) {
        dist[w] = static_cast<std::uint32_t>(cand);
        heap.push({cand, w});
      }
    }
  }
  return dist;
}

std::vector<std::uint32_t> reference_kcore(const Csr& g, std::uint32_t k) {
  const vid_t n = g.num_vertices();
  std::vector<std::uint64_t> deg(n);
  for (vid_t v = 0; v < n; ++v) deg[v] = g.degree(v);
  std::vector<char> alive(n, 1);
  std::vector<std::uint32_t> cores(n, 0);
  const auto peel_round = [&](std::uint32_t kk) {
    // Remove everything of degree < kk until the survivors stabilize.
    bool removed_any = false;
    bool changed = true;
    while (changed) {
      changed = false;
      for (vid_t v = 0; v < n; ++v) {
        if (!alive[v] || deg[v] >= kk) continue;
        alive[v] = 0;
        changed = true;
        removed_any = true;
        cores[v] = kk == 0 ? 0 : kk - 1;
        for (vid_t w : g.neighbors(v)) {
          if (alive[w] && deg[w] > 0) --deg[w];
        }
      }
    }
    return removed_any;
  };
  if (k > 0) {
    peel_round(k);
    for (vid_t v = 0; v < n; ++v) cores[v] = alive[v] ? 1 : 0;
    return cores;
  }
  // Full decomposition: peel at k = 1, 2, ... until nothing survives;
  // a vertex's coreness is the last k it survived.
  std::uint64_t live = n;
  for (std::uint32_t kk = 1; live > 0; ++kk) {
    peel_round(kk);
    live = 0;
    for (vid_t v = 0; v < n; ++v) {
      if (alive[v]) {
        cores[v] = kk;  // survived the kk-core trim (so coreness >= kk)
        ++live;
      }
    }
  }
  return cores;
}

std::string validate_sssp_distances(const Csr& g, vid_t src,
                                    const std::vector<std::uint32_t>& dist,
                                    std::uint64_t seed,
                                    std::uint32_t max_weight) {
  std::ostringstream os;
  if (dist.size() != g.num_vertices()) return "distance array has wrong size";
  if (src >= g.num_vertices()) return "source out of range";
  if (dist[src] != 0) {
    os << "dist[src] = " << dist[src] << ", want 0";
    return os.str();
  }
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (dist[v] == kUnreachedW) continue;
    bool has_tight_pred = v == src;
    for (vid_t w : g.neighbors(v)) {
      const std::uint32_t wt = synth_weight(v, w, seed, max_weight);
      if (dist[w] != kUnreachedW &&
          static_cast<std::uint64_t>(dist[w]) + wt <
              static_cast<std::uint64_t>(dist[v])) {
        os << "edge (" << w << " -> " << v << ", weight " << wt
           << ") is relaxable: " << dist[w] << " + " << wt << " < " << dist[v];
        return os.str();
      }
      if (dist[w] != kUnreachedW &&
          static_cast<std::uint64_t>(dist[w]) + wt ==
              static_cast<std::uint64_t>(dist[v])) {
        has_tight_pred = true;
      }
    }
    if (!has_tight_pred) {
      os << "reached vertex " << v << " (dist " << dist[v]
         << ") has no tight predecessor";
      return os.str();
    }
  }
  // Reachability must match the unweighted reachability set.
  const std::vector<std::int32_t> levels = reference_bfs(g, src);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const bool reached = dist[v] != kUnreachedW;
    const bool reachable = levels[v] != kUnreached;
    if (reached != reachable) {
      os << "vertex " << v << (reached ? " reached" : " unreached")
         << " but BFS says " << (reachable ? "reachable" : "unreachable");
      return os.str();
    }
  }
  return {};
}

std::string validate_kcore(const Csr& g, const std::vector<std::uint32_t>& cores,
                           std::uint32_t k) {
  std::ostringstream os;
  if (cores.size() != g.num_vertices()) return "core array has wrong size";
  const std::vector<std::uint32_t> want = reference_kcore(g, k);
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (cores[v] != want[v]) {
      os << (k == 0 ? "coreness" : "membership") << " of vertex " << v
         << " is " << cores[v] << ", want " << want[v];
      return os.str();
    }
  }
  return {};
}

}  // namespace xbfs::graph
