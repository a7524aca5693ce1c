// Edge-case and telemetry tests for the XBFS runner: degenerate graphs,
// repeated runs on one instance, telemetry consistency, and the modelled
// end-to-end accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/xbfs.h"
#include "graph/builder.h"
#include "graph/device_csr.h"
#include "graph/reference.h"
#include "graph/rmat.h"

namespace xbfs {
namespace {

core::BfsResult run_on(const graph::Csr& g, graph::vid_t src,
                       core::XbfsConfig cfg = {}) {
  sim::Device dev(sim::DeviceProfile::mi250x_gcd(),
                  sim::SimOptions{.num_workers = 2});
  dev.warmup();
  auto dg = graph::DeviceCsr::upload(dev, g);
  core::Xbfs bfs(dev, dg, cfg);
  return bfs.run(src);
}

TEST(XbfsEdgeCases, SingleVertexGraph) {
  const graph::Csr g = graph::build_csr(1, {});
  const core::BfsResult r = run_on(g, 0);
  ASSERT_EQ(r.levels.size(), 1u);
  EXPECT_EQ(r.levels[0], 0);
  EXPECT_EQ(r.depth, 1u);
}

TEST(XbfsEdgeCases, OutOfRangeSourceThrows) {
  const graph::Csr g = graph::build_csr(10, {{1, 2}, {2, 3}});
  sim::Device dev(sim::DeviceProfile::mi250x_gcd(),
                  sim::SimOptions{.num_workers = 1});
  auto dg = graph::DeviceCsr::upload(dev, g);
  core::Xbfs bfs(dev, dg);
  EXPECT_THROW(bfs.run(10), std::invalid_argument);
  EXPECT_THROW(bfs.run(graph::vid_t{1} << 30), std::invalid_argument);
  EXPECT_EQ(bfs.run(1).levels[3], 2);  // the instance stays usable
}

TEST(XbfsEdgeCases, IsolatedSourceTerminatesImmediately) {
  const graph::Csr g = graph::build_csr(10, {{1, 2}, {2, 3}});
  const core::BfsResult r = run_on(g, 0);  // vertex 0 has no edges
  EXPECT_EQ(r.levels[0], 0);
  for (graph::vid_t v = 1; v < 10; ++v) EXPECT_EQ(r.levels[v], -1);
}

TEST(XbfsEdgeCases, PathGraphVisitsEveryLevel) {
  std::vector<graph::Edge> e;
  for (graph::vid_t v = 0; v + 1 < 200; ++v) e.push_back({v, v + 1});
  const graph::Csr g = graph::build_csr(200, std::move(e));
  const core::BfsResult r = run_on(g, 0);
  for (graph::vid_t v = 0; v < 200; ++v) {
    ASSERT_EQ(r.levels[v], static_cast<std::int32_t>(v));
  }
  EXPECT_EQ(r.depth, 200u);
}

TEST(XbfsEdgeCases, CompleteGraphIsTwoLevels) {
  std::vector<graph::Edge> e;
  for (graph::vid_t u = 0; u < 64; ++u) {
    for (graph::vid_t v = u + 1; v < 64; ++v) e.push_back({u, v});
  }
  const graph::Csr g = graph::build_csr(64, std::move(e));
  const core::BfsResult r = run_on(g, 7);
  EXPECT_EQ(r.levels[7], 0);
  for (graph::vid_t v = 0; v < 64; ++v) {
    if (v != 7) ASSERT_EQ(r.levels[v], 1);
  }
}

TEST(XbfsEdgeCases, StarFromCenterAndLeaf) {
  std::vector<graph::Edge> e;
  for (graph::vid_t v = 1; v < 1000; ++v) e.push_back({0, v});
  const graph::Csr g = graph::build_csr(1000, std::move(e));
  const core::BfsResult center = run_on(g, 0);
  for (graph::vid_t v = 1; v < 1000; ++v) ASSERT_EQ(center.levels[v], 1);
  const core::BfsResult leaf = run_on(g, 500);
  EXPECT_EQ(leaf.levels[0], 1);
  EXPECT_EQ(leaf.levels[499], 2);
}

TEST(XbfsEdgeCases, RepeatedRunsOnOneInstanceAreConsistent) {
  graph::RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  p.seed = 31;
  const graph::Csr g = graph::rmat_csr(p);
  sim::Device dev(sim::DeviceProfile::mi250x_gcd(),
                  sim::SimOptions{.num_workers = 2});
  dev.warmup();
  auto dg = graph::DeviceCsr::upload(dev, g);
  core::Xbfs bfs(dev, dg);
  const auto giant = graph::largest_component_vertices(g);
  // The n-to-n pattern: same instance, many sources, no cross-talk.
  std::vector<std::int32_t> first;
  for (int i = 0; i < 5; ++i) {
    const core::BfsResult r = bfs.run(giant[i * 7]);
    const auto ref = graph::reference_bfs(g, giant[i * 7]);
    ASSERT_EQ(r.levels, ref) << "run " << i;
    if (i == 0) first = r.levels;
  }
  // Re-running the first source reproduces it exactly.
  EXPECT_EQ(bfs.run(giant[0]).levels, first);
}

TEST(XbfsTelemetry, LevelStatsAreInternallyConsistent) {
  graph::RmatParams p;
  p.scale = 12;
  p.edge_factor = 8;
  p.seed = 17;
  const graph::Csr g = graph::rmat_csr(p);
  const auto giant = graph::largest_component_vertices(g);
  const core::BfsResult r = run_on(g, giant[0]);

  ASSERT_EQ(r.depth, r.level_stats.size());
  double sum_level_ms = 0;
  for (std::size_t i = 0; i < r.level_stats.size(); ++i) {
    const core::LevelStats& st = r.level_stats[i];
    EXPECT_EQ(st.level, i);
    EXPECT_GT(st.time_ms, 0.0);
    EXPECT_GE(st.ratio, 0.0);
    EXPECT_LE(st.ratio, 1.0);
    EXPECT_GE(st.kernels, 1u);
    sum_level_ms += st.time_ms;
  }
  // Levels + final readback compose the end-to-end time.
  EXPECT_LE(sum_level_ms, r.total_ms);
  EXPECT_EQ(r.level_stats[0].frontier_count, 1u);
  // Frontier counts sum to the reached-vertex count.
  std::uint64_t frontier_total = 0;
  for (const auto& st : r.level_stats) frontier_total += st.frontier_count;
  std::uint64_t reached = 0;
  for (auto l : r.levels) {
    if (l >= 0) ++reached;
  }
  EXPECT_EQ(frontier_total, reached);
}

TEST(XbfsTelemetry, GtepsMatchesEdgesOverTime) {
  graph::RmatParams p;
  p.scale = 11;
  p.edge_factor = 8;
  p.seed = 13;
  const graph::Csr g = graph::rmat_csr(p);
  const auto giant = graph::largest_component_vertices(g);
  const core::BfsResult r = run_on(g, giant[0]);
  EXPECT_NEAR(r.gteps,
              static_cast<double>(r.edges_traversed) / (r.total_ms * 1e6),
              1e-9);
  // edges_traversed counts each undirected edge of the reached region once.
  std::uint64_t reached_deg = 0;
  for (graph::vid_t v = 0; v < g.num_vertices(); ++v) {
    if (r.levels[v] >= 0) reached_deg += g.degree(v);
  }
  EXPECT_EQ(r.edges_traversed, reached_deg / 2);
}

TEST(XbfsTelemetry, ForcedStrategyTagsEveryLevel) {
  graph::RmatParams p;
  p.scale = 10;
  p.edge_factor = 8;
  p.seed = 19;
  const graph::Csr g = graph::rmat_csr(p);
  const auto giant = graph::largest_component_vertices(g);
  core::XbfsConfig cfg;
  cfg.forced_strategy = static_cast<int>(core::Strategy::SingleScan);
  const core::BfsResult r = run_on(g, giant[0], cfg);
  for (const auto& st : r.level_stats) {
    EXPECT_EQ(st.strategy, core::Strategy::SingleScan);
    EXPECT_FALSE(st.skipped_generation);
  }
}

TEST(XbfsTelemetry, AdaptiveScheduleFollowsTheRatioCurve) {
  // The paper's canonical schedule on a dense RMAT: top-down start,
  // bottom-up at the ratio peak, top-down tail with an NFG transition.
  graph::RmatParams p;
  p.scale = 13;
  p.edge_factor = 16;
  p.seed = 1;
  const graph::Csr g = graph::rmat_csr(p);
  const auto giant = graph::largest_component_vertices(g);
  const core::BfsResult r = run_on(g, giant[0]);
  ASSERT_GE(r.depth, 4u);
  EXPECT_EQ(r.level_stats.front().strategy, core::Strategy::ScanFree);
  bool saw_bottom_up = false, saw_nfg_after_bu = false;
  for (std::size_t i = 0; i + 1 < r.level_stats.size(); ++i) {
    if (r.level_stats[i].strategy == core::Strategy::BottomUp) {
      saw_bottom_up = true;
      EXPECT_GT(r.level_stats[i].ratio, 0.1);
      if (r.level_stats[i + 1].strategy == core::Strategy::SingleScan &&
          r.level_stats[i + 1].skipped_generation) {
        saw_nfg_after_bu = true;
      }
    }
  }
  EXPECT_TRUE(saw_bottom_up);
  EXPECT_TRUE(saw_nfg_after_bu);
}

}  // namespace
}  // namespace xbfs
