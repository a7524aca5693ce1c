// Tests for the frontier/counter plumbing and the device-resident graph:
// buffer allocation geometry, counter readback modelling, queue appends and
// DeviceCsr uploads.
#include <gtest/gtest.h>

#include "core/frontier.h"
#include "core/kernels_bottomup.h"
#include "core/status.h"
#include "graph/device_csr.h"
#include "graph/rmat.h"

namespace xbfs::core {
namespace {

sim::Device make_device() {
  return sim::Device(sim::DeviceProfile::mi250x_gcd(),
                     sim::SimOptions{.num_workers = 1});
}

TEST(BfsBuffers, AllocationGeometry) {
  sim::Device dev = make_device();
  const graph::vid_t n = 10000;
  const std::uint32_t seg = 512;
  BfsBuffers b = BfsBuffers::allocate(dev, n, seg, 8, /*with_parents=*/true,
                                      /*with_bins=*/true);
  EXPECT_EQ(b.status.size(), n);
  EXPECT_EQ(b.parent.size(), n);
  EXPECT_EQ(b.queue_a.size(), n);
  EXPECT_EQ(b.queue_b.size(), n);
  EXPECT_EQ(b.pending_a.size(), n);
  EXPECT_EQ(b.pending_b.size(), n);
  EXPECT_EQ(b.bu_queue.size(), n);
  for (const CounterSet& set : b.counter_sets) {
    EXPECT_EQ(set.counters.size(), static_cast<std::size_t>(kNumCounters));
    EXPECT_EQ(set.edge_counters.size(),
              static_cast<std::size_t>(kNumEdgeCounters));
  }
  EXPECT_EQ(b.segment_size, seg);
  EXPECT_EQ(b.num_segments, (n + seg - 1) / seg);
  EXPECT_EQ(b.seg_counts.size(), b.num_segments);
  EXPECT_EQ(b.bin_small.size(), n);
}

TEST(BfsBuffers, ParentAndBinsAreOptional) {
  sim::Device dev = make_device();
  BfsBuffers b = BfsBuffers::allocate(dev, 100, 64, 2, false, false);
  EXPECT_TRUE(b.parent.empty());
  EXPECT_TRUE(b.bin_small.empty());
  EXPECT_TRUE(b.bin_large.empty());
}

TEST(ReadCounters, ReflectsDeviceStateAndChargesCopyTime) {
  sim::Device dev = make_device();
  BfsBuffers b = BfsBuffers::allocate(dev, 100, 64, 2, false, false);
  CounterSet& set = b.counter_sets[1];
  set.counters.host_data()[kNextTail] = 11;
  set.counters.host_data()[kPendingTail] = 22;
  set.counters.host_data()[kNewCount] = 33;
  set.counters.host_data()[kCurTail] = 44;
  set.edge_counters.host_data()[kNextEdges] = 55;
  set.edge_counters.host_data()[kPendingEdges] = 66;
  const double before = dev.now_us();
  sim::AttributionSink sink;
  LevelCounters lc;
  {
    sim::ScopedAttribution attr(dev, sink);
    lc = read_counters(dev, dev.stream(0), set);
  }
  EXPECT_EQ(lc.next_count, 11u);
  EXPECT_EQ(lc.pending_count, 22u);
  EXPECT_EQ(lc.new_count, 33u);
  EXPECT_EQ(lc.cur_count, 44u);
  EXPECT_EQ(lc.next_edges, 55u);
  EXPECT_EQ(lc.pending_edges, 66u);
  EXPECT_GT(dev.now_us(), before);  // the d2h readback costs modelled time
  // One copy of exactly one set's bytes.
  const sim::DeviceProfile& p = dev.profile();
  EXPECT_EQ(sink.memcpys, 1u);
  EXPECT_EQ(sink.launches, 0u);
  EXPECT_DOUBLE_EQ(sink.modelled_us,
                   p.memcpy_overhead_us +
                       static_cast<double>(kNumCounters * 4 +
                                           kNumEdgeCounters * 8) /
                           p.d2h_bytes_per_us);
}

TEST(AppendQueue, ZeroCountIsANoOpWithoutLaunch) {
  sim::Device dev = make_device();
  BfsBuffers b = BfsBuffers::allocate(dev, 100, 64, 2, false, false);
  dev.profiler().clear();
  launch_append_queue(dev, dev.stream(0), b.pending_a.cspan(), 0,
                      b.queue_a.span(), 0, 64);
  EXPECT_TRUE(dev.profiler().records().empty());
}

TEST(SegmentSizing, BuScanBlocksFitsFinalScanBlock) {
  const sim::DeviceProfile p = sim::DeviceProfile::mi250x_gcd();
  for (std::uint32_t segs : {1u, 7u, 110u, 4096u, 1u << 20}) {
    const unsigned blocks = bu_scan_blocks(p, segs, 256);
    EXPECT_GE(blocks, 1u);
    EXPECT_LE(blocks, 256u);  // one thread per chunk in the final scan
    EXPECT_LE(blocks, p.num_cus);
  }
}

TEST(DeviceCsr, UploadPreservesPayloadAndChargesTransfer) {
  sim::Device dev = make_device();
  graph::RmatParams p;
  p.scale = 8;
  p.edge_factor = 4;
  p.seed = 9;
  const graph::Csr g = graph::rmat_csr(p);
  const double before = dev.now_us();
  auto dg = graph::DeviceCsr::upload(dev, g);
  EXPECT_GT(dev.now_us(), before);
  EXPECT_EQ(dg.n, g.num_vertices());
  EXPECT_EQ(dg.m, g.num_edges());
  for (std::size_t i = 0; i <= g.num_vertices(); ++i) {
    ASSERT_EQ(dg.offsets.host_data()[i], g.offsets()[i]);
  }
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    ASSERT_EQ(dg.cols.host_data()[e], g.cols()[e]);
  }
}

TEST(AutoGrid, CoversWorkAndRespectsCuCap) {
  const sim::DeviceProfile p = sim::DeviceProfile::mi250x_gcd();
  EXPECT_EQ(auto_grid_blocks(p, 1, 256), 1u);
  EXPECT_EQ(auto_grid_blocks(p, 256, 256), 1u);
  EXPECT_EQ(auto_grid_blocks(p, 257, 256), 2u);
  // Huge work saturates at num_cus * waves.
  EXPECT_EQ(auto_grid_blocks(p, 1ull << 40, 256, 8), p.num_cus * 8);
}

}  // namespace
}  // namespace xbfs::core
