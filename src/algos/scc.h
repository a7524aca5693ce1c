// Strongly Connected Component detection on the simulated GPU via the
// Forward-Backward (FW-BW) algorithm with trim — the paper's introduction
// names SCC as the canonical forward+backward-BFS consumer [16, 28].
//
// The host orchestrates partitions; the device runs trim sweeps and the
// forward/backward reachability BFS within a partition.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.h"
#include "graph/device_csr.h"
#include "hipsim/device.h"

namespace xbfs::algos {

struct SccResult {
  std::vector<graph::vid_t> component;  ///< component id per vertex
  graph::vid_t num_components = 0;
  double total_ms = 0.0;
  std::uint32_t fwbw_rounds = 0;  ///< pivot iterations run
  std::uint32_t trimmed = 0;      ///< vertices removed by trim-1
};

/// FW-BW SCC on a *directed* graph: `fwd` is the out-edge CSR, `bwd` its
/// transpose (graph::reverse_csr), both resident on `dev`.
SccResult scc_fw_bw(sim::Device& dev, const graph::DeviceCsr& fwd,
                    const graph::DeviceCsr& bwd);

/// Serial Tarjan reference; component ids are arbitrary but consistent.
std::vector<graph::vid_t> scc_reference(const graph::Csr& g,
                                        graph::vid_t* num_components);

/// True when two component labelings describe the same partition.
bool same_partition(const std::vector<graph::vid_t>& a,
                    const std::vector<graph::vid_t>& b);

}  // namespace xbfs::algos
