// Graph500-specification BFS result validation (the five checks of the
// official benchmark, applied to a parent array):
//   1. the BFS tree is a tree rooted at the source (each reached vertex has
//      a parent chain terminating at the root);
//   2. tree edges connect vertices whose BFS levels differ by exactly one;
//   3. every edge of the input graph connects vertices whose levels differ
//      by at most one;
//   4. the tree spans exactly the source's connected component;
//   5. the root's parent is itself and no unreached vertex has a parent.
//
// Used by examples/graph500_runner and the test suite.  The levels
// validator below is the one BFS level oracle: graph::validate_bfs_levels
// (reference.h) forwards to it, and the serving paths call it on a Csr or
// a dyn::DeltaCsr.
#pragma once

#include <sstream>
#include <string>
#include <vector>

#include "graph/csr.h"
#include "graph/reference.h"

namespace xbfs::graph {

/// Validate a parent array per the Graph500 rules.  Returns empty on
/// success, else a diagnostic naming the violated rule.
std::string validate_graph500(const Csr& g, vid_t src,
                              const std::vector<vid_t>& parent);

/// Derive levels from a parent tree (root = 0); kUnreached for vertices
/// outside the tree, or an empty vector if the tree contains a cycle or an
/// out-of-range parent.
std::vector<std::int32_t> levels_from_parents(const Csr& g, vid_t src,
                                              const std::vector<vid_t>& parent);

/// Graph500-style validation of a *levels* array, without running a
/// reference traversal: O(|V| + |E|) and no allocation proportional to the
/// frontier.  Returns empty on success, else a diagnostic.  `G` is Csr or
/// dyn::DeltaCsr (anything with num_vertices() and for_each_neighbor()),
/// so one validator serves the static and the dynamic serving paths.
///
/// The four rules are a complete oracle — they hold iff `levels` equals the
/// exact hop distances from `src`:
///   1. levels[src] == 0 and no other vertex claims level 0 (and every
///      entry is kUnreached or in [0, |V|));
///   2. no edge joins a reached and an unreached vertex;
///   3. every edge between reached vertices spans at most one level;
///   4. every reached vertex at level k > 0 has a neighbor at level k-1.
/// (<=: distances satisfy all four.  =>: rules 1+4 give an edge path of
/// length k to any level-k vertex so dist <= level; rule 3 gives
/// level(v) <= level(u)+1 along any path from src, so by induction
/// level <= dist; rule 2 forces exactly the source's component reached.)
///
/// The serving engine uses this as its cheap corruption detector on the
/// retry path: any single corrupted entry violates one of the rules because
/// exact-distance labelings are unique.
template <typename G>
std::string validate_levels_graph500(const G& g, vid_t src,
                                     const std::vector<std::int32_t>& levels) {
  std::ostringstream os;
  const vid_t n = g.num_vertices();
  if (levels.size() != n) {
    os << "levels array has size " << levels.size() << ", expected " << n;
    return os.str();
  }
  if (src >= n) {
    os << "source " << src << " out of range";
    return os.str();
  }

  // Rule 1: well-formed values, source (and only the source) at level 0.
  if (levels[src] != 0) {
    os << "rule 1: source " << src << " has level " << levels[src];
    return os.str();
  }
  for (vid_t v = 0; v < n; ++v) {
    const std::int32_t l = levels[v];
    if (l != kUnreached && (l < 0 || static_cast<vid_t>(l) >= n)) {
      os << "rule 1: vertex " << v << " has out-of-range level " << l;
      return os.str();
    }
    if (l == 0 && v != src) {
      os << "rule 1: non-source vertex " << v << " claims level 0";
      return os.str();
    }
  }

  for (vid_t v = 0; v < n; ++v) {
    const std::int32_t lv = levels[v];
    if (lv == kUnreached) continue;
    bool has_pred = lv == 0;  // the source needs no predecessor
    vid_t bad = v;            // first neighbor breaking rule 2 or 3
    g.for_each_neighbor(v, [&](vid_t w) {
      if (bad != v) return;
      const std::int32_t lw = levels[w];
      if (lw == kUnreached || lw > lv + 1 || lv > lw + 1) {
        bad = w;
      } else if (lw == lv - 1) {
        has_pred = true;
      }
    });
    if (bad != v) {
      const std::int32_t lw = levels[bad];
      if (lw == kUnreached) {
        // Rule 2: reachability is closed over edges.
        os << "rule 2: edge (" << v << "," << bad
           << ") joins reached and unreached vertices";
      } else {
        // Rule 3: edges span at most one level.
        os << "rule 3: edge (" << v << "," << bad << ") spans levels " << lv
           << " and " << lw;
      }
      return os.str();
    }
    // Rule 4: a level-k vertex is witnessed by a level-(k-1) neighbor.
    if (!has_pred) {
      os << "rule 4: vertex " << v << " at level " << lv
         << " has no neighbor at level " << lv - 1;
      return os.str();
    }
  }
  return {};
}

}  // namespace xbfs::graph
