// The adaptive strategy controller (paper Sec. III intro + Sec. V-D).
//
// Per level the controller sees the size and edge mass of the upcoming
// frontier and decides which generation strategy runs:
//   * ratio = frontier_edges / |E| > alpha            -> bottom-up
//   * otherwise top-down; between scan-free and single-scan the frontier
//     *growth rate* decides, and the No-Frontier-Generation variant skips
//     the generation scan when the previous strategy left a usable queue.
#pragma once

#include <cstdint>

#include "core/config.h"

namespace xbfs::core {

/// What the runner knows when it must choose a strategy for a level.
struct LevelInputs {
  std::uint32_t level = 0;
  std::uint64_t frontier_count = 0;  ///< vertices in the upcoming frontier
  std::uint64_t frontier_edges = 0;  ///< sum of their degrees
  std::uint64_t prev_frontier_count = 0;
  std::uint64_t total_edges = 1;     ///< |E| of the graph
  bool queue_available = false;      ///< previous pass materialized the queue
  bool has_prev = false;
  Strategy prev_strategy = Strategy::ScanFree;
};

struct LevelDecision {
  Strategy strategy = Strategy::ScanFree;
  /// Single-scan only: skip the generation scan and reuse the queue (NFG).
  bool skip_generation = false;
  double ratio = 0.0;  ///< frontier_edges / total_edges, for telemetry

  bool operator==(const LevelDecision&) const = default;
};

/// ratio = frontier_edges / |E|, the controller's bottom-up signal (an
/// edgeless graph counts |E| as 1).
inline double frontier_ratio(std::uint64_t frontier_edges,
                             std::uint64_t total_edges) {
  return static_cast<double>(frontier_edges) /
         static_cast<double>(total_edges ? total_edges : 1);
}

class AdaptivePolicy {
 public:
  explicit AdaptivePolicy(const XbfsConfig& cfg) : cfg_(cfg) {}

  LevelDecision decide(const LevelInputs& in) const;

 private:
  XbfsConfig cfg_;
};

}  // namespace xbfs::core
