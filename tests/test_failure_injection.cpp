// Failure-injection tests: resource exhaustion, invalid launches, corrupted
// inputs — every failure path must surface as a typed error, never as
// silent corruption.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/xbfs.h"
#include "graph/builder.h"
#include "graph/datasets.h"
#include "graph/device_csr.h"
#include "graph/g500_validate.h"
#include "graph/io.h"
#include "graph/reference.h"
#include "hipsim/hipsim.h"

namespace xbfs {
namespace {

TEST(FailureInjection, DeviceMemoryExhaustionThrowsBadAlloc) {
  sim::DeviceProfile p = sim::DeviceProfile::test_profile();
  p.device_mem_bytes = 1 << 20;  // 1 MB device
  sim::Device dev(p, sim::SimOptions{.num_workers = 1});
  auto ok = dev.alloc<std::uint8_t>(1 << 19);  // fits
  EXPECT_EQ(ok.size(), std::size_t{1} << 19);
  EXPECT_THROW(dev.alloc<std::uint8_t>(1 << 20), std::bad_alloc);
}

TEST(FailureInjection, LdsExhaustionThrows) {
  sim::SimOptions o;
  o.num_workers = 1;
  o.lds_bytes = 256;
  sim::Device dev(sim::DeviceProfile::test_profile(), o);
  EXPECT_THROW(
      dev.launch("lds_hog", sim::LaunchConfig{1, 64, 1.0},
                 [](sim::BlockCtx& blk) { blk.shmem().alloc<double>(1024); }),
      std::runtime_error);
}

TEST(FailureInjection, InvalidLaunchConfigurationThrows) {
  sim::Device dev(sim::DeviceProfile::test_profile(),
                  sim::SimOptions{.num_workers = 1});
  auto noop = [](sim::BlockCtx&) {};
  EXPECT_THROW(dev.launch("bad", sim::LaunchConfig{0, 64, 1.0}, noop),
               std::invalid_argument);
  EXPECT_THROW(dev.launch("bad", sim::LaunchConfig{1, 0, 1.0}, noop),
               std::invalid_argument);
  EXPECT_THROW(
      dev.launch("bad",
                 sim::LaunchConfig{1, dev.profile().max_block_threads + 1,
                                   1.0},
                 noop),
      std::invalid_argument);
}

TEST(FailureInjection, CorruptedCsrIsRejectedByValidation) {
  // Non-monotone offsets.
  {
    std::vector<graph::eid_t> offsets = {0, 3, 1, 4};
    std::vector<graph::vid_t> cols = {0, 1, 2, 0};
    const graph::Csr g(std::move(offsets), std::move(cols));
    EXPECT_FALSE(g.validate().empty());
  }
  // Out-of-range neighbor.
  {
    std::vector<graph::eid_t> offsets = {0, 2};
    std::vector<graph::vid_t> cols = {0, 9};
    const graph::Csr g(std::move(offsets), std::move(cols));
    EXPECT_FALSE(g.validate().empty());
  }
}

TEST(FailureInjection, TruncatedBinaryFilesThrow) {
  namespace fs = std::filesystem;
  const std::string path =
      (fs::temp_directory_path() / "xbfs_truncated.bin").string();
  // Write a valid file, then truncate it mid-payload.
  graph::write_edge_list_binary(path, 10,
                                {{0, 1}, {2, 3}, {4, 5}, {6, 7}});
  fs::resize_file(path, fs::file_size(path) - 6);
  EXPECT_THROW(graph::read_edge_list_binary(path), std::runtime_error);
  fs::remove(path);
}

TEST(FailureInjection, MalformedTextEdgeListThrows) {
  namespace fs = std::filesystem;
  const std::string path =
      (fs::temp_directory_path() / "xbfs_malformed.txt").string();
  {
    std::ofstream out(path);
    out << "1 2\nthis is not an edge\n3 4\n";
  }
  EXPECT_THROW(graph::read_edge_list_text(path), std::runtime_error);
  fs::remove(path);
}

TEST(FailureInjection, ValidatorCatchesSimulatedKernelBug) {
  // Simulate a buggy traversal result (the kind a broken enqueue would
  // produce: a level-2 vertex claimed at level 1) and confirm the
  // validation harness the tests rely on rejects it.
  const graph::Csr g =
      graph::build_csr(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  auto levels = graph::reference_bfs(g, 0);
  levels[2] = 1;  // corrupt
  EXPECT_FALSE(graph::validate_levels_graph500(g, 0, levels).empty());
}

TEST(FailureInjection, UnknownDatasetNameThrows) {
  EXPECT_THROW(graph::dataset_from_name("R99"), std::invalid_argument);
}

}  // namespace
}  // namespace xbfs
