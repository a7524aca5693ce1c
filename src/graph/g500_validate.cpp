#include "graph/g500_validate.h"

#include <algorithm>
#include <sstream>

#include "graph/reference.h"

namespace xbfs::graph {

namespace {
constexpr vid_t kNoParent = static_cast<vid_t>(-1);
}

std::vector<std::int32_t> levels_from_parents(
    const Csr& g, vid_t src, const std::vector<vid_t>& parent) {
  const vid_t n = g.num_vertices();
  std::vector<std::int32_t> levels(n, kUnreached);
  if (parent.size() != n || src >= n) return {};
  levels[src] = 0;
  for (vid_t v = 0; v < n; ++v) {
    if (v == src || parent[v] == kNoParent) continue;
    // Walk to a vertex with a known level; path length bounded by n.
    std::vector<vid_t> chain;
    vid_t cur = v;
    while (levels[cur] == kUnreached) {
      chain.push_back(cur);
      const vid_t p = parent[cur];
      if (p >= n || p == kNoParent) return {};  // broken chain
      if (chain.size() > static_cast<std::size_t>(n)) return {};  // cycle
      cur = p;
    }
    std::int32_t level = levels[cur];
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      levels[*it] = ++level;
    }
  }
  return levels;
}

std::string validate_graph500(const Csr& g, vid_t src,
                              const std::vector<vid_t>& parent) {
  std::ostringstream os;
  const vid_t n = g.num_vertices();
  if (parent.size() != n) return "parent array has wrong size";

  // Rule 5: root self-parented.
  if (parent[src] != src) {
    os << "rule 5: source " << src << " is not its own parent";
    return os.str();
  }

  // Rule 1: acyclic chains to the root (levels derivable).
  const std::vector<std::int32_t> levels = levels_from_parents(g, src, parent);
  if (levels.empty()) {
    return "rule 1: parent chains contain a cycle or out-of-range parent";
  }

  // Rule 2: every tree edge exists in the graph and spans exactly 1 level.
  for (vid_t v = 0; v < n; ++v) {
    if (v == src || parent[v] == kNoParent) continue;
    const vid_t p = parent[v];
    if (levels[v] != levels[p] + 1) {
      os << "rule 2: tree edge (" << p << "," << v << ") spans levels "
         << levels[p] << " -> " << levels[v];
      return os.str();
    }
    const auto nb = g.neighbors(v);
    if (std::find(nb.begin(), nb.end(), p) == nb.end()) {
      os << "rule 2: tree edge (" << p << "," << v
         << ") is not a graph edge";
      return os.str();
    }
  }

  // Rule 3: graph edges span at most one level (within the reached set).
  for (vid_t v = 0; v < n; ++v) {
    if (levels[v] == kUnreached) continue;
    for (vid_t w : g.neighbors(v)) {
      if (levels[w] == kUnreached) {
        os << "rule 3/4: reached vertex " << v << " has unreached neighbor "
           << w;
        return os.str();
      }
      if (std::abs(levels[v] - levels[w]) > 1) {
        os << "rule 3: edge (" << v << "," << w << ") spans levels "
           << levels[v] << " and " << levels[w];
        return os.str();
      }
    }
  }

  // Rule 4: the tree spans exactly the source's component.
  const std::vector<std::int32_t> ref = reference_bfs(g, src);
  for (vid_t v = 0; v < n; ++v) {
    const bool in_tree = v == src || parent[v] != kNoParent;
    const bool reachable = ref[v] != kUnreached;
    if (in_tree != reachable) {
      os << "rule 4: vertex " << v << (in_tree ? " is" : " is not")
         << " in the tree but" << (reachable ? " is" : " is not")
         << " reachable";
      return os.str();
    }
    // With rules 1-3 established, tree levels are exact BFS distances.
    if (reachable && levels[v] != ref[v]) {
      os << "rule 2: vertex " << v << " tree depth " << levels[v]
         << " != BFS distance " << ref[v];
      return os.str();
    }
  }
  return {};
}

}  // namespace xbfs::graph
