// Integration across the six Table II stand-ins: adaptive XBFS correctness
// on every dataset class, schedule sanity (where bottom-up should and
// should not fire) and cross-implementation agreement (XBFS vs bitmap mode
// vs distributed).
#include <gtest/gtest.h>

#include "core/xbfs.h"
#include "graph/datasets.h"
#include "graph/device_csr.h"
#include "graph/g500_validate.h"
#include "graph/reference.h"
#include "shard/shard_bfs.h"

namespace xbfs {
namespace {

constexpr unsigned kDivisor = 256;  // keep every stand-in test-sized

class DatasetIntegration
    : public ::testing::TestWithParam<graph::DatasetId> {};

TEST_P(DatasetIntegration, AdaptiveXbfsMatchesReference) {
  const graph::Csr g = graph::make_dataset(GetParam(), kDivisor, 1);
  ASSERT_TRUE(g.validate().empty());
  const auto giant = graph::largest_component_vertices(g);
  sim::Device dev(sim::DeviceProfile::mi250x_gcd(),
                  sim::SimOptions{.num_workers = 2});
  dev.warmup();
  auto dg = graph::DeviceCsr::upload(dev, g);
  core::Xbfs bfs(dev, dg);
  for (graph::vid_t src : {giant.front(), giant[giant.size() / 2]}) {
    const core::BfsResult r = bfs.run(src);
    const std::string err = graph::validate_levels_graph500(g, src, r.levels);
    ASSERT_TRUE(err.empty()) << err;
  }
}

TEST_P(DatasetIntegration, BitmapModeAgreesWithPlainMode) {
  const graph::Csr g = graph::make_dataset(GetParam(), kDivisor, 2);
  const auto giant = graph::largest_component_vertices(g);
  const graph::vid_t src = giant.front();

  core::BfsResult results[2];
  for (int m = 0; m < 2; ++m) {
    sim::Device dev(sim::DeviceProfile::mi250x_gcd(),
                    sim::SimOptions{.num_workers = 1});
    dev.warmup();
    auto dg = graph::DeviceCsr::upload(dev, g);
    core::XbfsConfig cfg;
    cfg.bottomup_bitmap = (m == 1);
    core::Xbfs bfs(dev, dg, cfg);
    results[m] = bfs.run(src);
  }
  ASSERT_EQ(results[0].levels, results[1].levels);
  ASSERT_EQ(results[0].depth, results[1].depth);
  for (std::size_t lvl = 0; lvl < results[0].level_stats.size(); ++lvl) {
    EXPECT_EQ(results[0].level_stats[lvl].frontier_count,
              results[1].level_stats[lvl].frontier_count)
        << lvl;
    EXPECT_EQ(results[0].level_stats[lvl].strategy,
              results[1].level_stats[lvl].strategy)
        << lvl;
  }
}

TEST_P(DatasetIntegration, DistributedAgreesWithSingleDevice) {
  const graph::Csr g = graph::make_dataset(GetParam(), kDivisor, 3);
  const auto giant = graph::largest_component_vertices(g);
  const graph::vid_t src = giant.front();

  sim::Device dev(sim::DeviceProfile::mi250x_gcd(),
                  sim::SimOptions{.num_workers = 1});
  dev.warmup();
  auto dg = graph::DeviceCsr::upload(dev, g);
  core::Xbfs bfs(dev, dg);
  const core::BfsResult single = bfs.run(src);

  shard::ShardStoreConfig scfg;
  scfg.shards = 4;
  scfg.device_options.num_workers = 1;
  shard::ShardedStore store(g, scfg);
  shard::ShardSweep sweep(store);
  const shard::ShardSweepResult multi =
      sweep.run(src, std::vector<int>(scfg.shards, 0));
  ASSERT_EQ(single.levels, multi.levels);
}

INSTANTIATE_TEST_SUITE_P(
    AllDatasets, DatasetIntegration,
    ::testing::Values(graph::DatasetId::LJ, graph::DatasetId::UP,
                      graph::DatasetId::OR, graph::DatasetId::DB,
                      graph::DatasetId::R23, graph::DatasetId::R25),
    [](const ::testing::TestParamInfo<graph::DatasetId>& info) {
      return graph::dataset_meta(info.param).short_name;
    });

TEST(DatasetSchedules, DenseRmatUsesBottomUpSparsePatentMostlyTopDown) {
  auto schedule = [&](graph::DatasetId id) {
    const graph::Csr g = graph::make_dataset(id, kDivisor, 5);
    const auto giant = graph::largest_component_vertices(g);
    sim::Device dev(sim::DeviceProfile::mi250x_gcd(),
                    sim::SimOptions{.num_workers = 2});
    dev.warmup();
    auto dg = graph::DeviceCsr::upload(dev, g);
    core::Xbfs bfs(dev, dg);
    return bfs.run(giant.front());
  };
  // Dense Orkut stand-in: one level carries most edge mass -> bottom-up.
  const core::BfsResult orkut = schedule(graph::DatasetId::OR);
  bool orkut_bottom_up = false;
  for (const auto& st : orkut.level_stats) {
    orkut_bottom_up |= st.strategy == core::Strategy::BottomUp;
  }
  EXPECT_TRUE(orkut_bottom_up);
  // Long-diameter patent stand-in: most levels stay top-down.
  const core::BfsResult patent = schedule(graph::DatasetId::UP);
  unsigned bu_levels = 0;
  for (const auto& st : patent.level_stats) {
    bu_levels += st.strategy == core::Strategy::BottomUp;
  }
  EXPECT_LT(bu_levels, patent.depth / 2);
  EXPECT_GT(patent.depth, orkut.depth);
}

}  // namespace
}  // namespace xbfs
