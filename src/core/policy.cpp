#include "core/policy.h"

namespace xbfs::core {

namespace {

/// Frontier-count growth rate above which single-scan replaces scan-free.
constexpr double kGrowthThreshold = 8.0;

}  // namespace

LevelDecision AdaptivePolicy::decide(const LevelInputs& in) const {
  LevelDecision d;
  d.ratio = frontier_ratio(in.frontier_edges, in.total_edges);

  if (cfg_.forced_strategy >= 0) {
    d.strategy = static_cast<Strategy>(cfg_.forced_strategy);
    // Forced mode mirrors the paper's per-strategy profiling runs: every
    // kernel of the strategy executes at every level (Tables III-V), so the
    // NFG shortcut stays off.
    d.skip_generation = false;
    return d;
  }

  if (d.ratio > cfg_.alpha) {
    d.strategy = Strategy::BottomUp;
    return d;
  }

  if (!in.queue_available) {
    // No materialized queue (previous level ran single-scan): the
    // generation scan is mandatory, which *is* the single-scan strategy.
    d.strategy = Strategy::SingleScan;
    return d;
  }

  if (in.has_prev && in.prev_strategy == Strategy::BottomUp &&
      cfg_.enable_nfg) {
    // Transitioning out of bottom-up: single-scan can reuse the queue the
    // bottom-up pass enqueued and skip generation entirely — the paper's
    // level-5 choice ("often making it faster than scan-free here").
    d.strategy = Strategy::SingleScan;
    d.skip_generation = true;
    return d;
  }

  const double growth =
      in.prev_frontier_count > 0
          ? static_cast<double>(in.frontier_count) /
                static_cast<double>(in.prev_frontier_count)
          : 1.0;
  if (growth > kGrowthThreshold) {
    // Rapidly growing frontier: scan-free's CAS + duplicate-enqueue costs
    // scale with the expansion; the single scan amortizes better.
    d.strategy = Strategy::SingleScan;
    d.skip_generation = cfg_.enable_nfg;
  } else {
    d.strategy = Strategy::ScanFree;
  }
  return d;
}

}  // namespace xbfs::core
