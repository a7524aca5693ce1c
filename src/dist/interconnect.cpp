#include "dist/interconnect.h"

namespace xbfs::dist {

double FabricModel::allgather_us(unsigned gcds,
                                 std::uint64_t total_bytes) const {
  if (gcds <= 1) return 0.0;
  const double bw = group_bandwidth(gcds);
  const double moved = (static_cast<double>(gcds - 1) / gcds) *
                       static_cast<double>(total_bytes);
  return moved / bw + (gcds - 1) * link_latency_us;
}

double FabricModel::alltoall_us(unsigned gcds,
                                std::uint64_t busiest_bytes) const {
  if (gcds <= 1) return 0.0;
  return static_cast<double>(busiest_bytes) / group_bandwidth(gcds) +
         (gcds - 1) * link_latency_us;
}

}  // namespace xbfs::dist
