// Serial reference algorithms: the ground truth every simulated-GPU
// engine is validated against — BFS plus the algorithm-family oracles
// (SSSP, connected components, k-core) the cross-engine conformance suite
// and the serving validators run, and connectivity helpers used by
// benches to pick sources from the giant component (as Graph500 does).
#pragma once

#include <cstdint>
#include <deque>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/csr.h"

namespace xbfs::graph {

inline constexpr std::int32_t kUnreached = -1;
/// Unreached sentinel of the uint32 SSSP distance domain (the host-side
/// twin of core::kUnreachedDist; graph sits below core in the layering).
inline constexpr std::uint32_t kUnreachedW = 0xFFFFFFFFu;

/// Deterministic synthetic edge weight in [1, max_weight], symmetric in
/// (u, v).  The CSR stores no weights; SSSP engines and the Dijkstra
/// oracle derive identical weights from (edge, seed), which is what makes
/// device distances exactly comparable to the host's.
inline std::uint32_t synth_weight(vid_t u, vid_t v, std::uint64_t seed,
                                  std::uint32_t max_weight) {
  if (max_weight <= 1) return 1;
  const std::uint64_t a = u < v ? u : v;
  const std::uint64_t b = u < v ? v : u;
  std::uint64_t h = seed ^ 0x9E3779B97F4A7C15ull;
  h ^= a + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  h *= 0xff51afd7ed558ccdull;
  h ^= b + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return 1 + static_cast<std::uint32_t>(h % max_weight);
}

/// Serial queue BFS; levels[v] = hops from src, kUnreached if not reachable
/// (all of them for an out-of-range src).  `G` is Csr or dyn::DeltaCsr
/// (anything with num_vertices() and for_each_neighbor()).
template <typename G>
std::vector<std::int32_t> reference_bfs(const G& g, vid_t src) {
  std::vector<std::int32_t> levels(g.num_vertices(), kUnreached);
  if (src >= g.num_vertices()) return levels;
  std::deque<vid_t> queue{src};
  levels[src] = 0;
  while (!queue.empty()) {
    const vid_t v = queue.front();
    queue.pop_front();
    const std::int32_t next = levels[v] + 1;
    g.for_each_neighbor(v, [&](vid_t w) {
      if (levels[w] == kUnreached) {
        levels[w] = next;
        queue.push_back(w);
      }
    });
  }
  return levels;
}

/// Connected components (undirected view); comp[v] in [0, n_components).
/// `G` is Csr or dyn::DeltaCsr (anything with num_vertices() and
/// for_each_neighbor()).
template <typename G>
std::vector<vid_t> connected_components(const G& g, vid_t* n_components) {
  const vid_t n = g.num_vertices();
  std::vector<vid_t> comp(n, static_cast<vid_t>(-1));
  vid_t next_comp = 0;
  std::deque<vid_t> queue;
  for (vid_t s = 0; s < n; ++s) {
    if (comp[s] != static_cast<vid_t>(-1)) continue;
    comp[s] = next_comp;
    queue.push_back(s);
    while (!queue.empty()) {
      const vid_t v = queue.front();
      queue.pop_front();
      g.for_each_neighbor(v, [&](vid_t w) {
        if (comp[w] == static_cast<vid_t>(-1)) {
          comp[w] = next_comp;
          queue.push_back(w);
        }
      });
    }
    ++next_comp;
  }
  if (n_components) *n_components = next_comp;
  return comp;
}

/// Vertices of the largest component, ascending.  Benches sample BFS
/// sources from this set so every run traverses the bulk of the graph.
std::vector<vid_t> largest_component_vertices(const Csr& g);

/// Validate a parent array against a level assignment: parent edges must
/// exist and span exactly one level.
std::string validate_bfs_parents(const Csr& g, vid_t src,
                                 const std::vector<std::int32_t>& levels,
                                 const std::vector<vid_t>& parent);

// --- algorithm-family oracles (PR 8) ---------------------------------------

/// Serial Dijkstra over synth_weight(seed, max_weight) edge weights;
/// dist[v] = shortest weighted distance from src, kUnreachedW if
/// unreachable.  Shortest distances are unique, so any correct SSSP engine
/// must match this exactly.
std::vector<std::uint32_t> reference_sssp(const Csr& g, vid_t src,
                                          std::uint64_t seed,
                                          std::uint32_t max_weight);

/// Canonical connected-component labels: comp[v] = smallest vertex id in
/// v's component.  Engines that emit min-id labels (label propagation)
/// must match exactly; arbitrary-id labelings
/// compare via validate_components.  `G` is Csr or dyn::DeltaCsr.
template <typename G>
std::vector<vid_t> canonical_components(const G& g) {
  const vid_t n = g.num_vertices();
  constexpr vid_t kNone = static_cast<vid_t>(-1);
  std::vector<vid_t> comp(n, kNone);
  std::deque<vid_t> queue;
  // Flooding from sources in ascending id order makes each flood's seed
  // the smallest vertex of its component.
  for (vid_t s = 0; s < n; ++s) {
    if (comp[s] != kNone) continue;
    comp[s] = s;
    queue.push_back(s);
    while (!queue.empty()) {
      const vid_t v = queue.front();
      queue.pop_front();
      g.for_each_neighbor(v, [&](vid_t w) {
        if (comp[w] == kNone) {
          comp[w] = s;
          queue.push_back(w);
        }
      });
    }
  }
  return comp;
}

/// Serial k-core by iterative peeling.  k == 0: cores[v] = coreness of v
/// (the largest k such that v survives the k-core trim).  k > 0:
/// cores[v] = 1 iff v is in the k-core, else 0.
std::vector<std::uint32_t> reference_kcore(const Csr& g, std::uint32_t k);

/// Validate an SSSP distance assignment without referencing any particular
/// relaxation order: dist[src] == 0; no edge is relaxable (dist[w] <=
/// dist[v] + w(v,w)); every reached non-source vertex has a tight
/// predecessor; reachability matches BFS reachability.  Empty string if
/// valid, else a diagnostic.
std::string validate_sssp_distances(const Csr& g, vid_t src,
                                    const std::vector<std::uint32_t>& dist,
                                    std::uint64_t seed,
                                    std::uint32_t max_weight);

/// Validate a component labeling as a partition: both endpoints of every
/// edge share a label, and vertices with equal labels are connected
/// (checked against a reference labeling, O(V + E)).  Labels themselves
/// may be arbitrary ids.  Empty string if valid, else a diagnostic.  `G`
/// is Csr or dyn::DeltaCsr, as for connected_components.
template <typename G>
std::string validate_components(const G& g, const std::vector<vid_t>& comp) {
  const vid_t n = g.num_vertices();
  if (comp.size() != n) return "component array has wrong size";
  for (vid_t v = 0; v < n; ++v) {
    vid_t split = v;  // a neighbor with another label, if any
    g.for_each_neighbor(v, [&](vid_t w) {
      if (split == v && comp[w] != comp[v]) split = w;
    });
    if (split != v) {
      std::ostringstream os;
      os << "edge (" << v << ", " << split << ") spans labels " << comp[v]
         << " and " << comp[split];
      return os.str();
    }
  }
  // Same-label vertices must actually be connected: the labeling must not
  // merge reference components.  Each submitted label may map to exactly
  // one reference component.
  const std::vector<vid_t> ref = connected_components(g, nullptr);
  std::unordered_map<vid_t, vid_t> label_to_ref;
  for (vid_t v = 0; v < n; ++v) {
    const auto [it, inserted] = label_to_ref.emplace(comp[v], ref[v]);
    if (!inserted && it->second != ref[v]) {
      std::ostringstream os;
      os << "label " << comp[v] << " spans two disconnected components";
      return os.str();
    }
  }
  return {};
}

/// Validate a k-core answer.  k == 0 (decomposition): recomputes the
/// peeling and requires exact coreness equality.  k > 0 (membership):
/// checks the marked set is the maximal subgraph with min degree >= k.
/// Empty string if valid, else a diagnostic.
std::string validate_kcore(const Csr& g, const std::vector<std::uint32_t>& cores,
                           std::uint32_t k);

}  // namespace xbfs::graph
