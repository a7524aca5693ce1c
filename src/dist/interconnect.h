// Interconnect cost model for multi-GCD collectives on Frontier-like
// topology: Infinity Fabric between GCDs inside a node (4x MI250X = 8 GCDs
// per node), HPE Slingshot-11 between nodes.  Collective times follow the
// standard ring-algorithm cost model over the slowest link in the group.
#pragma once

#include <cstdint>

namespace xbfs::dist {

struct FabricModel {
  unsigned gcds_per_node = 8;
  double intra_node_bytes_per_us = 5.0e4;  ///< ~50 GB/s per IF link direction
  double inter_node_bytes_per_us = 2.5e4;  ///< ~25 GB/s Slingshot per NIC
  double link_latency_us = 2.0;            ///< per collective hop

  static FabricModel frontier() { return {}; }

  /// Slowest link bandwidth for a group of `gcds` devices.
  double group_bandwidth(unsigned gcds) const {
    return gcds <= gcds_per_node ? intra_node_bytes_per_us
                                 : inter_node_bytes_per_us;
  }

  /// Ring allgather: each device contributes bytes/g and receives the rest.
  double allgather_us(unsigned gcds, std::uint64_t total_bytes) const;

  /// Personalized all-to-all: every device sends each peer its own slice,
  /// so the busiest device's sent-or-received bytes set the time, plus
  /// (g-1) link latencies.
  double alltoall_us(unsigned gcds, std::uint64_t busiest_bytes) const;
};

}  // namespace xbfs::dist
