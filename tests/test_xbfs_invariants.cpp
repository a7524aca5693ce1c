// System-level invariants of the XBFS runner that cut across modules:
// bit-exact determinism in profile mode, telemetry that must agree with
// host-computed ground truth, and a throughput calibration band that
// guards the timing model against regressions.
#include <gtest/gtest.h>

#include <cmath>

#include "core/xbfs.h"
#include "graph/device_csr.h"
#include "graph/reference.h"
#include "graph/rmat.h"
#include "graph/stats.h"

namespace xbfs {
namespace {

graph::Csr test_graph(unsigned scale, std::uint64_t seed) {
  graph::RmatParams p;
  p.scale = scale;
  p.edge_factor = 16;
  p.seed = seed;
  return graph::rmat_csr(p);
}

TEST(XbfsInvariants, ProfileModeIsBitDeterministic) {
  const graph::Csr g = test_graph(11, 41);
  const auto giant = graph::largest_component_vertices(g);
  auto run_once = [&]() {
    sim::Device dev(sim::DeviceProfile::mi250x_gcd(),
                    sim::SimOptions{.num_workers = 1});
    dev.warmup();
    auto dg = graph::DeviceCsr::upload(dev, g);
    core::Xbfs bfs(dev, dg);
    dev.profiler().clear();
    const core::BfsResult r = bfs.run(giant[0]);
    return std::make_pair(r, dev.profiler().records());
  };
  const auto [r1, p1] = run_once();
  const auto [r2, p2] = run_once();
  EXPECT_EQ(r1.levels, r2.levels);
  EXPECT_DOUBLE_EQ(r1.total_ms, r2.total_ms);
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    ASSERT_EQ(p1[i].kernel, p2[i].kernel) << i;
    ASSERT_EQ(p1[i].counters.fetch_bytes, p2[i].counters.fetch_bytes) << i;
    ASSERT_EQ(p1[i].counters.l2_hits, p2[i].counters.l2_hits) << i;
    ASSERT_EQ(p1[i].counters.lane_slots, p2[i].counters.lane_slots) << i;
    ASSERT_DOUBLE_EQ(p1[i].timing.total_us, p2[i].timing.total_us) << i;
  }
}

TEST(XbfsInvariants, TelemetryRatiosMatchHostGroundTruth) {
  // The adaptive controller's per-level ratio is derived from device-side
  // edge counters; it must agree exactly (profile mode has no benign-race
  // overcounting) with the strategy-independent host computation.
  const graph::Csr g = test_graph(12, 42);
  const auto giant = graph::largest_component_vertices(g);
  const graph::vid_t src = giant[0];

  sim::Device dev(sim::DeviceProfile::mi250x_gcd(),
                  sim::SimOptions{.num_workers = 1});
  dev.warmup();
  auto dg = graph::DeviceCsr::upload(dev, g);
  core::Xbfs bfs(dev, dg);
  const core::BfsResult r = bfs.run(src);

  const std::vector<double> ref_ratio = graph::frontier_edge_ratio(g, src);
  ASSERT_EQ(r.level_stats.size(), ref_ratio.size());
  for (std::size_t lvl = 0; lvl < ref_ratio.size(); ++lvl) {
    EXPECT_NEAR(r.level_stats[lvl].ratio, ref_ratio[lvl], 1e-12)
        << "level " << lvl << " ("
        << core::strategy_name(r.level_stats[lvl].strategy) << ")";
  }

  // Frontier sizes must match the host trace, too.
  const auto ref_sizes = graph::frontier_sizes(g, src);
  for (std::size_t lvl = 0; lvl < ref_sizes.size(); ++lvl) {
    EXPECT_EQ(r.level_stats[lvl].frontier_count, ref_sizes[lvl])
        << "level " << lvl;
  }
}

TEST(XbfsInvariants, TelemetryRatiosHoldUnderLookaheadAndBitmap) {
  const graph::Csr g = test_graph(11, 43);
  const auto giant = graph::largest_component_vertices(g);
  const graph::vid_t src = giant[0];
  const std::vector<double> ref_ratio = graph::frontier_edge_ratio(g, src);

  for (const bool bitmap : {false, true}) {
    sim::Device dev(sim::DeviceProfile::mi250x_gcd(),
                    sim::SimOptions{.num_workers = 1});
    dev.warmup();
    auto dg = graph::DeviceCsr::upload(dev, g);
    core::XbfsConfig cfg;
    cfg.bottomup_bitmap = bitmap;
    cfg.alpha = 0.05;  // exercise bottom-up + look-ahead carries
    core::Xbfs bfs(dev, dg, cfg);
    const core::BfsResult r = bfs.run(src);
    ASSERT_EQ(r.level_stats.size(), ref_ratio.size()) << "bitmap " << bitmap;
    for (std::size_t lvl = 0; lvl < ref_ratio.size(); ++lvl) {
      EXPECT_NEAR(r.level_stats[lvl].ratio, ref_ratio[lvl], 1e-12)
          << "bitmap " << bitmap << " level " << lvl;
    }
  }
}

TEST(XbfsInvariants, ModeledThroughputStaysInCalibrationBand) {
  // Guard against timing-model regressions: a dense RMAT at scale 16 on
  // the full MI250X profile must land in a broad but meaningful GTEPS band
  // (the model's absolute scale, not just its orderings).
  const graph::Csr g = test_graph(16, 44);
  const auto giant = graph::largest_component_vertices(g);
  sim::Device dev(sim::DeviceProfile::mi250x_gcd());
  dev.warmup();
  auto dg = graph::DeviceCsr::upload(dev, g);
  core::Xbfs bfs(dev, dg);
  dev.profiler().clear();
  const core::BfsResult r = bfs.run(giant[0]);
  EXPECT_GT(r.gteps, 0.5);
  EXPECT_LT(r.gteps, 60.0);
  // Per-level overheads at this size keep it far from the bandwidth bound.
  EXPECT_LT(r.total_ms, 10.0);
  // The model's own floor: every phase row (the first carries the launch),
  // one synchronize, and one copy of at least a byte per vertex.  The grid
  // barriers lie above it.
  const sim::DeviceProfile& p = dev.profile();
  double floor_us = p.device_sync_us + p.memcpy_overhead_us +
                    g.num_vertices() / p.d2h_bytes_per_us;
  for (const sim::LaunchRecord& rec : dev.profiler().records()) {
    floor_us += rec.timing.total_us;
  }
  EXPECT_GT(r.total_ms, floor_us / 1000.0);
}

TEST(XbfsInvariants, LargerGraphsGetCloserToBandwidthBound) {
  // Fixed overheads amortize with scale: GTEPS must increase from scale 14
  // to scale 18 on the same profile (the effect EXPERIMENTS.md documents).
  double gteps[2] = {0, 0};
  const unsigned scales[2] = {14, 18};
  for (int i = 0; i < 2; ++i) {
    const graph::Csr g = test_graph(scales[i], 45);
    const auto giant = graph::largest_component_vertices(g);
    sim::Device dev(sim::DeviceProfile::mi250x_gcd());
    dev.warmup();
    auto dg = graph::DeviceCsr::upload(dev, g);
    core::Xbfs bfs(dev, dg);
    gteps[i] = bfs.run(giant[0]).gteps;
  }
  EXPECT_GT(gteps[1], 2.0 * gteps[0]);
}

}  // namespace
}  // namespace xbfs
