// Disk round-trip integration: a generated dataset written by one tool
// path and read back by another must traverse identically — the contract
// between make_dataset, dataset_explorer --file and the library.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/xbfs.h"
#include "graph/datasets.h"
#include "graph/device_csr.h"
#include "graph/g500_validate.h"
#include "graph/io.h"
#include "graph/reference.h"
#include "graph/reorder.h"

namespace xbfs::graph {
namespace {

class IoIntegration : public ::testing::Test {
 protected:
  std::string path(const char* name) {
    const auto p = std::filesystem::temp_directory_path() /
                   (std::string("xbfs_io_integration_") + name);
    created_.push_back(p.string());
    return p.string();
  }
  void TearDown() override {
    for (const auto& p : created_) std::filesystem::remove(p);
  }
  std::vector<std::string> created_;
};

TEST_F(IoIntegration, CsrRoundTripTraversesIdentically) {
  const Csr g = make_dataset(DatasetId::DB, 512, 7);
  const std::string file = path("db.csr");
  write_csr_binary(file, g);
  const Csr back = read_csr_binary(file);

  const auto giant = largest_component_vertices(g);
  const vid_t src = giant.front();
  EXPECT_EQ(reference_bfs(g, src), reference_bfs(back, src));

  sim::Device dev(sim::DeviceProfile::mi250x_gcd(),
                  sim::SimOptions{.num_workers = 2});
  dev.warmup();
  auto dg = graph::DeviceCsr::upload(dev, back);
  core::Xbfs bfs(dev, dg);
  const core::BfsResult r = bfs.run(src);
  EXPECT_TRUE(validate_levels_graph500(back, src, r.levels).empty());
}

TEST_F(IoIntegration, RearrangedGraphSurvivesRoundTrip) {
  const Csr g = rearrange_neighbors(make_dataset(DatasetId::R23, 512, 3),
                                    NeighborOrder::ByDegreeDesc);
  const std::string file = path("r23_reord.csr");
  write_csr_binary(file, g);
  const Csr back = read_csr_binary(file);
  // The on-disk format must preserve adjacency order exactly (the order IS
  // the optimization).
  EXPECT_EQ(back.cols(), g.cols());
  EXPECT_TRUE(neighbors_ordered(back, NeighborOrder::ByDegreeDesc));
}

TEST_F(IoIntegration, HalvedTextEdgeListRebuildsTheSameGraph) {
  // The make_dataset --text path writes each undirected edge once; the
  // builder's symmetrization must reconstruct the same CSR.
  const Csr g = make_dataset(DatasetId::DB, 1024, 9);
  std::vector<Edge> half;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    for (vid_t w : g.neighbors(v)) {
      if (v <= w) half.push_back({v, w});
    }
  }
  const std::string file = path("db_half.txt");
  write_edge_list_text(file, half);
  vid_t n = 0;
  auto edges = read_edge_list_text(file, &n);
  const Csr rebuilt = build_csr(g.num_vertices(), std::move(edges));
  EXPECT_EQ(rebuilt.offsets(), g.offsets());
  EXPECT_EQ(rebuilt.cols(), g.cols());
}

}  // namespace
}  // namespace xbfs::graph
