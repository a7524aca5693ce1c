// Edge-list -> CSR construction with the clean-up passes every real graph
// pipeline needs: symmetrization, self-loop removal, deduplication, and
// ascending neighbor ids in every row.
//
// Memory contract.  `build_csr` takes the edge list by value and never
// copies it.  It counts each row from both endpoints, scatters the forward
// entries and then the reversed ones into one `cols` array, frees the edge
// list, and sorts, dedups and compacts each row in place.  Its peak heap is
// therefore the edge list (8 B per edge) plus one `cols` array (4 B per
// entry before dedup) plus the offsets and the scatter cursor ((n + 1) x
// 8 B each).  The final shrink of `cols` to its payload runs after the
// edge list is freed, so it stays under that peak; a returned graph holds
// exactly `Csr::payload_bytes()`.  Before sorting, each row holds its
// entries in the order the symmetrized edge list (forward edges, then
// reversed) gives them.  tests/test_build_memory.cpp checks the peak.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.h"

namespace xbfs::graph {

struct Edge {
  vid_t u = 0;
  vid_t v = 0;
  friend bool operator==(const Edge&, const Edge&) = default;
};

struct BuildOptions {
  bool symmetrize = true;  ///< add (v,u) for every (u,v): undirected BFS
};

/// Build a CSR over vertices [0, n) from an arbitrary edge list.
Csr build_csr(vid_t n, std::vector<Edge> edges, const BuildOptions& opt = {});

/// Transpose of a directed CSR: in-edges become out-edges.  Used by the
/// backward sweeps of directed algorithms (SCC).
Csr reverse_csr(const Csr& g);

}  // namespace xbfs::graph
