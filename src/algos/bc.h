// Betweenness centrality (Brandes' algorithm) on the simulated GPU — the
// paper's introduction names BC as a primary BFS consumer [24].  Forward
// level-synchronous BFS accumulates shortest-path counts (sigma); the
// backward sweep walks levels in reverse accumulating dependencies (delta).
// Sampled sources give approximate BC, as is standard at scale.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.h"
#include "graph/device_csr.h"
#include "hipsim/device.h"

namespace xbfs::algos {

struct BcResult {
  /// Accumulated (unnormalized) dependency per vertex over the sources.
  std::vector<double> centrality;
  double total_ms = 0.0;
};

/// Accumulate BC contributions of the given source vertices.
BcResult betweenness_centrality(sim::Device& dev, const graph::DeviceCsr& g,
                                const std::vector<graph::vid_t>& sources);

/// Serial host reference (exact for the same source set).
std::vector<double> betweenness_reference(const graph::Csr& g,
                                          const std::vector<graph::vid_t>& sources);

}  // namespace xbfs::algos
