// Tests for the adaptive strategy controller: the alpha threshold, the
// growth-rate rule, queue availability, NFG transitions and forced mode.
#include <gtest/gtest.h>

#include "core/policy.h"

namespace xbfs::core {
namespace {

LevelInputs base_inputs() {
  LevelInputs in;
  in.level = 3;
  in.frontier_count = 1000;
  in.frontier_edges = 10000;
  in.prev_frontier_count = 800;
  in.total_edges = 1'000'000;
  in.queue_available = true;
  in.has_prev = true;
  in.prev_strategy = Strategy::ScanFree;
  return in;
}

TEST(Policy, RatioAboveAlphaPicksBottomUp) {
  XbfsConfig cfg;
  cfg.alpha = 0.1;
  AdaptivePolicy p(cfg);
  LevelInputs in = base_inputs();
  in.frontier_edges = 200'000;  // ratio 0.2
  const LevelDecision d = p.decide(in);
  EXPECT_EQ(d.strategy, Strategy::BottomUp);
  EXPECT_NEAR(d.ratio, 0.2, 1e-12);
}

TEST(Policy, RatioBelowAlphaStaysTopDown) {
  AdaptivePolicy p(XbfsConfig{});
  LevelInputs in = base_inputs();
  in.frontier_edges = 50'000;  // ratio 0.05 < 0.1
  EXPECT_NE(p.decide(in).strategy, Strategy::BottomUp);
}

TEST(Policy, AlphaBoundaryIsExclusive) {
  XbfsConfig cfg;
  cfg.alpha = 0.1;
  AdaptivePolicy p(cfg);
  LevelInputs in = base_inputs();
  in.frontier_edges = 100'000;  // ratio exactly 0.1
  EXPECT_NE(p.decide(in).strategy, Strategy::BottomUp);
}

TEST(Policy, MissingQueueForcesSingleScanWithGeneration) {
  AdaptivePolicy p(XbfsConfig{});
  LevelInputs in = base_inputs();
  in.queue_available = false;
  const LevelDecision d = p.decide(in);
  EXPECT_EQ(d.strategy, Strategy::SingleScan);
  EXPECT_FALSE(d.skip_generation);
}

TEST(Policy, PostBottomUpTransitionUsesNfg) {
  AdaptivePolicy p(XbfsConfig{});
  LevelInputs in = base_inputs();
  in.prev_strategy = Strategy::BottomUp;
  const LevelDecision d = p.decide(in);
  EXPECT_EQ(d.strategy, Strategy::SingleScan);
  EXPECT_TRUE(d.skip_generation);
}

TEST(Policy, PostBottomUpWithoutNfgFallsThroughToGrowthRule) {
  XbfsConfig cfg;
  cfg.enable_nfg = false;
  AdaptivePolicy p(cfg);
  LevelInputs in = base_inputs();
  in.prev_strategy = Strategy::BottomUp;
  in.frontier_count = 100;  // shrinking
  const LevelDecision d = p.decide(in);
  EXPECT_EQ(d.strategy, Strategy::ScanFree);
}

TEST(Policy, RapidGrowthPrefersSingleScan) {
  AdaptivePolicy p(XbfsConfig{});
  LevelInputs in = base_inputs();
  in.frontier_count = 100'000;  // 125x growth over prev 800
  const LevelDecision d = p.decide(in);
  EXPECT_EQ(d.strategy, Strategy::SingleScan);
  EXPECT_TRUE(d.skip_generation);  // queue is available
}

TEST(Policy, SlowGrowthPrefersScanFree) {
  AdaptivePolicy p(XbfsConfig{});
  LevelInputs in = base_inputs();
  in.frontier_count = 900;  // ~1.1x growth
  EXPECT_EQ(p.decide(in).strategy, Strategy::ScanFree);
}

TEST(Policy, ForcedStrategyOverridesEverything) {
  for (Strategy s : {Strategy::ScanFree, Strategy::SingleScan,
                     Strategy::BottomUp}) {
    XbfsConfig cfg;
    cfg.forced_strategy = static_cast<int>(s);
    AdaptivePolicy p(cfg);
    LevelInputs in = base_inputs();
    in.frontier_edges = 900'000;  // would be bottom-up adaptively
    const LevelDecision d = p.decide(in);
    EXPECT_EQ(d.strategy, s);
    EXPECT_FALSE(d.skip_generation);  // profiling mode runs all kernels
  }
}

TEST(Policy, Level0SingleVertexIsScanFree) {
  // The canonical start: one source in the queue, negligible ratio.
  AdaptivePolicy p(XbfsConfig{});
  LevelInputs in;
  in.level = 0;
  in.frontier_count = 1;
  in.frontier_edges = 30;
  in.prev_frontier_count = 0;
  in.total_edges = 1'000'000;
  in.queue_available = true;
  in.has_prev = false;
  EXPECT_EQ(p.decide(in).strategy, Strategy::ScanFree);
}

TEST(Policy, AlphaAboveOneDisablesBottomUp) {
  XbfsConfig cfg;
  cfg.alpha = 1.1;
  AdaptivePolicy p(cfg);
  LevelInputs in = base_inputs();
  in.frontier_edges = in.total_edges;  // ratio 1.0
  EXPECT_NE(p.decide(in).strategy, Strategy::BottomUp);
}

TEST(Policy, ZeroTotalEdgesDoesNotDivideByZero) {
  AdaptivePolicy p(XbfsConfig{});
  LevelInputs in = base_inputs();
  in.total_edges = 0;
  in.frontier_edges = 0;
  const LevelDecision d = p.decide(in);
  EXPECT_EQ(d.ratio, 0.0);
}

}  // namespace
}  // namespace xbfs::core
