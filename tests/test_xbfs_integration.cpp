// End-to-end correctness of the adaptive XBFS runner against the serial
// reference, across generators, seeds, strategies and configurations.
#include <gtest/gtest.h>

#include "core/xbfs.h"
#include "graph/device_csr.h"
#include "graph/g500_validate.h"
#include "graph/generators.h"
#include "graph/reference.h"
#include "graph/rmat.h"

namespace xbfs {
namespace {

graph::Csr small_rmat(unsigned scale, std::uint64_t seed) {
  graph::RmatParams p;
  p.scale = scale;
  p.edge_factor = 8;
  p.seed = seed;
  return graph::rmat_csr(p);
}

void expect_valid_bfs(const graph::Csr& g, const core::XbfsConfig& cfg,
                      graph::vid_t src) {
  sim::Device dev(sim::DeviceProfile::mi250x_gcd(), sim::SimOptions{});
  dev.warmup();
  auto dg = graph::DeviceCsr::upload(dev, g);
  core::Xbfs bfs(dev, dg, cfg);
  const core::BfsResult r = bfs.run(src);
  const std::string err = graph::validate_levels_graph500(g, src, r.levels);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_GT(r.total_ms, 0.0);
  if (cfg.build_parents) {
    const std::string perr =
        graph::validate_bfs_parents(g, src, r.levels, r.parent);
    EXPECT_TRUE(perr.empty()) << perr;
  }
}

TEST(XbfsIntegration, AdaptiveOnRmat) {
  const graph::Csr g = small_rmat(12, 1);
  expect_valid_bfs(g, core::XbfsConfig{}, graph::largest_component_vertices(g)[0]);
}

TEST(XbfsIntegration, AdaptiveWithParents) {
  const graph::Csr g = small_rmat(11, 2);
  core::XbfsConfig cfg;
  cfg.build_parents = true;
  expect_valid_bfs(g, cfg, graph::largest_component_vertices(g)[0]);
}

TEST(XbfsIntegration, ForcedScanFree) {
  const graph::Csr g = small_rmat(11, 3);
  core::XbfsConfig cfg;
  cfg.forced_strategy = static_cast<int>(core::Strategy::ScanFree);
  expect_valid_bfs(g, cfg, graph::largest_component_vertices(g)[0]);
}

TEST(XbfsIntegration, ForcedSingleScan) {
  const graph::Csr g = small_rmat(11, 4);
  core::XbfsConfig cfg;
  cfg.forced_strategy = static_cast<int>(core::Strategy::SingleScan);
  expect_valid_bfs(g, cfg, graph::largest_component_vertices(g)[0]);
}

TEST(XbfsIntegration, ForcedBottomUp) {
  const graph::Csr g = small_rmat(11, 5);
  core::XbfsConfig cfg;
  cfg.forced_strategy = static_cast<int>(core::Strategy::BottomUp);
  expect_valid_bfs(g, cfg, graph::largest_component_vertices(g)[0]);
}

TEST(XbfsIntegration, TripleBinnedStreams) {
  const graph::Csr g = small_rmat(11, 6);
  core::XbfsConfig cfg;
  cfg.stream_mode = core::StreamMode::TripleBinned;
  expect_valid_bfs(g, cfg, graph::largest_component_vertices(g)[0]);
}

TEST(XbfsIntegration, LongDiameterCitationGraph) {
  const graph::Csr g = graph::layered_citation(20000, 100, 4, 7);
  expect_valid_bfs(g, core::XbfsConfig{}, graph::largest_component_vertices(g)[0]);
}

TEST(XbfsIntegration, SmallWorldGraph) {
  const graph::Csr g = graph::small_world(10000, 8, 0.2, 8);
  expect_valid_bfs(g, core::XbfsConfig{}, graph::largest_component_vertices(g)[0]);
}

}  // namespace
}  // namespace xbfs
