// Graph500-style RMAT (recursive-matrix / stochastic Kronecker) generator,
// the workload family behind the paper's Rmat23/Rmat25 datasets and the
// Graph500 results it compares against.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/builder.h"
#include "graph/csr.h"

namespace xbfs::graph {

struct RmatParams {
  unsigned scale = 20;      ///< n = 2^scale vertices
  unsigned edge_factor = 16;  ///< m = edge_factor * n generated edges
  double a = 0.57, b = 0.19, c = 0.19;  ///< Graph500 quadrant weights (d = 1-a-b-c)
  std::uint64_t seed = 1;
  bool permute_labels = true;  ///< Graph500 random vertex relabeling
  /// Per-recursion-level multiplicative noise on the quadrant weights, as
  /// used by Graph500 to avoid exactly self-similar structure.
  double noise = 0.1;
};

/// Generate the raw RMAT edge list (directed; duplicates possible).
std::vector<Edge> rmat_edges(const RmatParams& params);

/// Convenience: generate and build the undirected, deduplicated CSR.
Csr rmat_csr(const RmatParams& params);

}  // namespace xbfs::graph
