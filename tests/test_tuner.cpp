// Tests for the alpha auto-tuner and the result-reporting helpers.
#include <gtest/gtest.h>

#include <sstream>

#include "core/report.h"
#include "core/tuner.h"
#include "core/xbfs.h"
#include "graph/device_csr.h"
#include "graph/g500_validate.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "graph/rmat.h"

namespace xbfs::core {
namespace {

TEST(AlphaTuner, FindsBracketOnDenseRmat) {
  // Large enough that kernels escape launch-overhead dominance (below
  // ~scale 17 bottom-up's five launches can never win and the tuner
  // rightly reports no bracket — covered by the next test).
  graph::RmatParams p;
  p.scale = 17;
  p.edge_factor = 16;
  p.seed = 21;
  const graph::Csr g = graph::rmat_csr(p);
  const auto giant = graph::largest_component_vertices(g);

  TunerOptions opt;
  opt.probe_sources = {giant.front()};
  const TunerReport rep =
      tune_alpha(sim::DeviceProfile::mi250x_gcd(), g, opt);

  ASSERT_FALSE(rep.samples.empty());
  ASSERT_TRUE(rep.bracket_found);
  EXPECT_GT(rep.recommended_alpha, rep.bracket_low);
  EXPECT_LT(rep.recommended_alpha, rep.bracket_high);
  // On a dense RMAT the crossover sits in the broad vicinity the paper's
  // Fig. 7 bracketed around alpha = 0.1.
  EXPECT_GT(rep.recommended_alpha, 1e-4);
  EXPECT_LT(rep.recommended_alpha, 0.7);
}

TEST(AlphaTuner, ToySizeReportsNoBracketAndDisablesBottomUp) {
  // With one launch per kernel (the TripleBinned host loop), every kernel
  // is launch-bound at toy scale, so bottom-up (five kernels) never wins
  // and the tuner must recommend keeping it off.
  graph::RmatParams p;
  p.scale = 10;
  p.edge_factor = 16;
  p.seed = 21;
  const graph::Csr g = graph::rmat_csr(p);
  const auto giant = graph::largest_component_vertices(g);
  TunerOptions opt;
  opt.probe_sources = {giant.front()};
  opt.base_config.stream_mode = core::StreamMode::TripleBinned;
  const TunerReport rep =
      tune_alpha(sim::DeviceProfile::mi250x_gcd(), g, opt);
  EXPECT_FALSE(rep.bracket_found);
  EXPECT_GE(rep.recommended_alpha, opt.fallback_alpha);
  EXPECT_LE(rep.recommended_alpha, 1.1);
}

TEST(AlphaTuner, ToySizeFindsBracketInTheCooperativeLaunch) {
  // In the default stream mode a traversal is one cooperative launch: the
  // five bottom-up kernels are grid phases that pay a grid barrier each
  // (about 0.5 us) instead of a launch, so already at scale 13 bottom-up
  // wins the widest levels and the tuner brackets a crossover, where the
  // host loop finds none below about scale 17.  (At scale 10 the barriers
  // still outweigh bottom-up's savings on every level.)
  graph::RmatParams p;
  p.scale = 13;
  p.edge_factor = 16;
  p.seed = 21;
  const graph::Csr g = graph::rmat_csr(p);
  const auto giant = graph::largest_component_vertices(g);
  TunerOptions opt;
  opt.probe_sources = {giant.front()};
  const TunerReport rep =
      tune_alpha(sim::DeviceProfile::mi250x_gcd(), g, opt);
  ASSERT_TRUE(rep.bracket_found);
  EXPECT_GT(rep.recommended_alpha, rep.bracket_low);
  EXPECT_LT(rep.recommended_alpha, rep.bracket_high);
}

TEST(AlphaTuner, RecommendedAlphaYieldsCorrectAndCompetitiveRuns) {
  graph::RmatParams p;
  p.scale = 12;
  p.edge_factor = 16;
  p.seed = 22;
  const graph::Csr g = graph::rmat_csr(p);
  const auto giant = graph::largest_component_vertices(g);

  TunerOptions opt;
  opt.probe_sources = {giant.front()};
  const TunerReport rep =
      tune_alpha(sim::DeviceProfile::mi250x_gcd(), g, opt);

  auto run_with_alpha = [&](double alpha) {
    sim::Device dev(sim::DeviceProfile::mi250x_gcd(),
                    sim::SimOptions{.num_workers = 1});
    dev.warmup();
    auto dg = graph::DeviceCsr::upload(dev, g);
    XbfsConfig cfg;
    cfg.alpha = alpha;
    Xbfs bfs(dev, dg, cfg);
    return bfs.run(giant[giant.size() / 3]);
  };
  const BfsResult tuned = run_with_alpha(rep.recommended_alpha);
  EXPECT_TRUE(graph::validate_levels_graph500(g, giant[giant.size() / 3],
                                              tuned.levels)
                  .empty());
  // The tuned alpha must not be worse than disabling bottom-up outright.
  const BfsResult topdown_only = run_with_alpha(2.0);
  EXPECT_LT(tuned.total_ms, topdown_only.total_ms * 1.05);
}

TEST(AlphaTuner, TopDownOnlyGraphGetsConservativeAlpha) {
  // A long path never reaches high ratios: bottom-up never wins, and the
  // tuner must not recommend an aggressive threshold.
  std::vector<graph::Edge> e;
  for (graph::vid_t v = 0; v + 1 < 3000; ++v) e.push_back({v, v + 1});
  const graph::Csr g = graph::build_csr(3000, std::move(e));
  TunerOptions opt;
  opt.probe_sources = {0};
  const TunerReport rep =
      tune_alpha(sim::DeviceProfile::mi250x_gcd(), g, opt);
  EXPECT_FALSE(rep.bracket_found);
  EXPECT_GE(rep.recommended_alpha, opt.fallback_alpha);
}

// A forced-strategy run models a warmed-up device: the one-time HIP
// warm-up is neither in the traversal's total nor on any level's row.
TEST(ForcedStrategy, RunsOnAWarmDevice) {
  graph::RmatParams p;
  p.scale = 10;
  p.edge_factor = 16;
  p.seed = 21;
  const graph::Csr g = graph::rmat_csr(p);
  const sim::DeviceProfile profile = sim::DeviceProfile::mi250x_gcd();
  const graph::vid_t src = graph::largest_component_vertices(g).front();
  for (const Strategy s :
       {Strategy::ScanFree, Strategy::SingleScan, Strategy::BottomUp}) {
    SCOPED_TRACE(strategy_name(s));
    const ForcedRun run = run_forced_strategy(profile, g, src, s);
    EXPECT_GT(run.result.total_ms, 0.0);
    EXPECT_LT(run.result.total_ms, profile.first_launch_us / 1000.0);
    for (const ForcedLevel& lv : run.levels) {
      EXPECT_LT(lv.kernels_ms, profile.first_launch_us / 1000.0);
    }
  }
}

TEST(Report, ScheduleTableAndCsvContainEveryLevel) {
  graph::RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  p.seed = 23;
  const graph::Csr g = graph::rmat_csr(p);
  const auto giant = graph::largest_component_vertices(g);
  sim::Device dev(sim::DeviceProfile::mi250x_gcd(),
                  sim::SimOptions{.num_workers = 1});
  dev.warmup();
  auto dg = graph::DeviceCsr::upload(dev, g);
  Xbfs bfs(dev, dg);
  const BfsResult r = bfs.run(giant.front());

  std::ostringstream table_os, csv_os;
  print_schedule(table_os, r);
  write_schedule_csv(csv_os, r);
  const std::string table = table_os.str();
  const std::string csv = csv_os.str();

  EXPECT_NE(table.find("end-to-end"), std::string::npos);
  // CSV: header + one row per level.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'),
            static_cast<long>(r.level_stats.size()) + 1);
  for (const LevelStats& st : r.level_stats) {
    EXPECT_NE(table.find(strategy_name(st.strategy)), std::string::npos);
  }
}

}  // namespace
}  // namespace xbfs::core
