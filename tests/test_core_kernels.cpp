// Kernel-level tests for the XBFS building blocks, each validated against a
// host-side recomputation: status init, run setup (xbfs_init), single-scan
// generation, the bottom-up count/scan/queue-gen pipeline and both
// expansion kernels for a single level.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

#include "core/kernels_bottomup.h"
#include "core/kernels_topdown.h"
#include "core/status.h"
#include "core/xbfs.h"
#include "graph/device_csr.h"
#include "graph/reference.h"
#include "graph/rmat.h"

namespace xbfs::core {
namespace {

using graph::vid_t;

struct KernelFixture : ::testing::Test {
  KernelFixture()
      : dev(sim::DeviceProfile::mi250x_gcd(), sim::SimOptions{.num_workers = 2}) {
    graph::RmatParams p;
    p.scale = 11;
    p.edge_factor = 8;
    p.seed = 77;
    host = graph::rmat_csr(p);
    dg = graph::DeviceCsr::upload(dev, host);
    cfg.block_threads = 128;
    buffers = BfsBuffers::allocate(
        dev, dg.n, 256,
        bu_scan_blocks(dev.profile(), (dg.n + 255) / 256, cfg.block_threads),
        /*with_parents=*/false, /*with_bins=*/true);
  }

  /// Set the status array host-side to `levels` (kUnvisited for -1).
  void set_status(const std::vector<std::int32_t>& levels) {
    for (vid_t v = 0; v < dg.n; ++v) {
      buffers.status.host_data()[v] =
          levels[v] < 0 ? kUnvisited : static_cast<std::uint32_t>(levels[v]);
    }
  }

  TopDownArgs topdown_args(sim::dspan<const vid_t> queue,
                           std::uint32_t queue_size, std::uint32_t level) {
    TopDownArgs a;
    a.adj = dg.adjacency();
    a.status = buffers.status.span();
    a.queue = queue;
    a.queue_size = queue_size;
    a.next_queue = buffers.queue_b.span();
    a.counters = buffers.counter_sets[0].counters.span();
    a.edge_counters = buffers.counter_sets[0].edge_counters.span();
    a.cur_level = level;
    return a;
  }

  BottomUpArgs bottomup_args(std::uint32_t level) {
    BottomUpArgs a;
    a.adj = dg.adjacency();
    a.status = buffers.status.span();
    a.bu_queue = buffers.bu_queue.span();
    a.next_queue = buffers.queue_b.span();
    a.pending_queue = buffers.pending_a.span();
    a.seg_counts = buffers.seg_counts.span();
    a.seg_offsets = buffers.seg_offsets.span();
    a.block_sums = buffers.block_sums.span();
    a.counters = buffers.counter_sets[0].counters.span();
    a.edge_counters = buffers.counter_sets[0].edge_counters.span();
    a.n = dg.n;
    a.num_segments = buffers.num_segments;
    a.segment_size = buffers.segment_size;
    a.cur_level = level;
    return a;
  }

  /// Host views of counter set 0, which every single-kernel test uses.
  std::uint32_t* counters() {
    return buffers.counter_sets[0].counters.host_data();
  }
  std::uint64_t* edge_counters() {
    return buffers.counter_sets[0].edge_counters.host_data();
  }
  void reset_counters() {
    std::fill(counters(), counters() + kNumCounters, 0u);
    std::fill(edge_counters(), edge_counters() + kNumEdgeCounters, 0u);
  }

  sim::Device dev;
  graph::Csr host;
  graph::DeviceCsr dg;
  XbfsConfig cfg;
  BfsBuffers buffers{};
};

TEST_F(KernelFixture, InitStatusFillsUnvisited) {
  std::fill(buffers.status.host_data(), buffers.status.host_data() + dg.n, 7u);
  launch_init_status(dev, dev.stream(0), buffers.status.span(), 128);
  for (vid_t v = 0; v < dg.n; ++v) {
    ASSERT_EQ(buffers.status.host_data()[v], kUnvisited) << v;
  }
}

TEST_F(KernelFixture, InitSeedsSource) {
  BfsBuffers b = BfsBuffers::allocate(dev, dg.n, 256, 4,
                                      /*with_parents=*/true,
                                      /*with_bins=*/false,
                                      /*with_bitmaps=*/true);
  std::fill(b.status.host_data(), b.status.host_data() + dg.n, 7u);
  std::fill(b.parent.host_data(), b.parent.host_data() + dg.n, 7u);
  for (auto& bm : b.bitmaps) {
    std::fill(bm.host_data(), bm.host_data() + bm.size(), ~std::uint64_t{0});
  }
  const vid_t src = 42;
  launch_init(dev, dev.stream(0), b, src, 128);
  for (vid_t v = 0; v < dg.n; ++v) {
    ASSERT_EQ(b.status.host_data()[v], v == src ? 0u : kUnvisited) << v;
    ASSERT_EQ(b.parent.host_data()[v], v == src ? src : kNoParent) << v;
  }
  EXPECT_EQ(b.queue_a.host_data()[0], src);
  for (int m = 0; m < 3; ++m) {
    for (std::size_t w = 0; w < b.bitmaps[m].size(); ++w) {
      const std::uint64_t want =
          m == 0 && w == src / 64 ? std::uint64_t{1} << (src % 64) : 0;
      ASSERT_EQ(b.bitmaps[m].host_data()[w], want) << m << ' ' << w;
    }
  }
  // The level-0 tail starts at 0: queue_a[0] is the frontier, sized by the
  // host, and the generation scan appends from 0.
  EXPECT_EQ(b.counter_sets[0].counters.host_data()[kCurTail], 0u);
}

TEST_F(KernelFixture, InitZeroesBothCounterSets) {
  for (CounterSet& set : buffers.counter_sets) {
    std::fill(set.counters.host_data(),
              set.counters.host_data() + kNumCounters, 99u);
    set.edge_counters.host_data()[0] = 123;
    set.edge_counters.host_data()[1] = 456;
  }
  launch_init(dev, dev.stream(0), buffers, 0, 128);
  for (const CounterSet& set : buffers.counter_sets) {
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      EXPECT_EQ(set.counters.host_data()[i], 0u) << i;
    }
    EXPECT_EQ(set.edge_counters.host_data()[0], 0u);
    EXPECT_EQ(set.edge_counters.host_data()[1], 0u);
  }
}

TEST_F(KernelFixture, SingleScanGenerateFindsExactlyTheLevel) {
  const auto giant = graph::largest_component_vertices(host);
  const auto levels = graph::reference_bfs(host, giant[0]);
  set_status(levels);
  reset_counters();
  const std::uint32_t target_level = 2;
  launch_singlescan_generate(dev, dev.stream(0), buffers.status.span(),
                             buffers.queue_a.span(),
                             buffers.counter_sets[0].counters.span(),
                             target_level, cfg);
  std::set<vid_t> expected;
  for (vid_t v = 0; v < dg.n; ++v) {
    if (levels[v] == static_cast<std::int32_t>(target_level)) {
      expected.insert(v);
    }
  }
  const std::uint32_t count = counters()[kCurTail];
  ASSERT_EQ(count, expected.size());
  std::set<vid_t> got(buffers.queue_a.host_data(),
                      buffers.queue_a.host_data() + count);
  EXPECT_EQ(got, expected);  // no duplicates, no misses
}

TEST_F(KernelFixture, ScanFreeExpandClaimsExactlyTheNextLevel) {
  const auto giant = graph::largest_component_vertices(host);
  const vid_t src = giant[0];
  const auto ref = graph::reference_bfs(host, src);
  // State: levels <= 1 visited, rest unvisited; queue = level-1 vertices.
  std::vector<std::int32_t> cut(ref.size());
  std::vector<vid_t> frontier;
  for (vid_t v = 0; v < dg.n; ++v) {
    cut[v] = (ref[v] >= 0 && ref[v] <= 1) ? ref[v] : -1;
    if (ref[v] == 1) frontier.push_back(v);
  }
  set_status(cut);
  std::copy(frontier.begin(), frontier.end(), buffers.queue_a.host_data());
  reset_counters();
  const TopDownArgs a = topdown_args(
      buffers.queue_a.cspan(), static_cast<std::uint32_t>(frontier.size()), 1);
  launch_scanfree_expand(dev, dev.stream(0), a, cfg);

  std::uint64_t expected_next = 0, expected_edges = 0;
  for (vid_t v = 0; v < dg.n; ++v) {
    if (ref[v] == 2) {
      ++expected_next;
      expected_edges += host.degree(v);
      ASSERT_EQ(buffers.status.host_data()[v], 2u) << v;
    } else if (cut[v] < 0) {
      ASSERT_EQ(buffers.status.host_data()[v], kUnvisited) << v;
    }
  }
  EXPECT_EQ(counters()[kNextTail], expected_next);
  EXPECT_EQ(edge_counters()[kNextEdges], expected_edges);
  // Queue entries are exactly the level-2 set, no duplicates.
  std::set<vid_t> got(buffers.queue_b.host_data(),
                      buffers.queue_b.host_data() + expected_next);
  EXPECT_EQ(got.size(), expected_next);
  for (vid_t v : got) EXPECT_EQ(ref[v], 2);
}

TEST_F(KernelFixture, ScanFreeBalancingModesAgree) {
  const auto giant = graph::largest_component_vertices(host);
  const vid_t src = giant[0];
  const auto ref = graph::reference_bfs(host, src);
  std::vector<vid_t> frontier;
  for (vid_t v = 0; v < dg.n; ++v) {
    if (ref[v] == 1) frontier.push_back(v);
  }
  std::vector<std::uint32_t> results[3];
  const Balancing modes[3] = {Balancing::ThreadCentric,
                              Balancing::WavefrontCentric,
                              Balancing::DegreeBinned};
  for (int m = 0; m < 3; ++m) {
    std::vector<std::int32_t> cut(ref.size());
    for (vid_t v = 0; v < dg.n; ++v) {
      cut[v] = (ref[v] >= 0 && ref[v] <= 1) ? ref[v] : -1;
    }
    set_status(cut);
    std::copy(frontier.begin(), frontier.end(), buffers.queue_a.host_data());
    reset_counters();
    XbfsConfig c = cfg;
    c.topdown_balancing = modes[m];
    const TopDownArgs a = topdown_args(
        buffers.queue_a.cspan(), static_cast<std::uint32_t>(frontier.size()),
        1);
    launch_scanfree_expand(dev, dev.stream(0), a, c);
    results[m].assign(buffers.status.host_data(),
                      buffers.status.host_data() + dg.n);
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[1], results[2]);
}

TEST_F(KernelFixture, BottomUpPipelineBuildsSortedCandidateQueue) {
  // Random visited pattern; the pipeline must enumerate exactly the
  // unvisited vertices, globally sorted.
  std::mt19937_64 rng(5);
  std::vector<std::int32_t> levels(dg.n);
  for (vid_t v = 0; v < dg.n; ++v) levels[v] = (rng() & 3) == 0 ? 1 : -1;
  set_status(levels);
  reset_counters();
  const BottomUpArgs a = bottomup_args(1);
  launch_bu_count(dev, dev.stream(0), a, cfg);
  launch_bu_scan_block(dev, dev.stream(0), a, cfg);
  launch_bu_scan_final(dev, dev.stream(0), a, cfg);
  launch_bu_queue_gen(dev, dev.stream(0), a, cfg);

  std::vector<vid_t> expected;
  for (vid_t v = 0; v < dg.n; ++v) {
    if (levels[v] < 0) expected.push_back(v);
  }
  const std::uint32_t total = counters()[kCurTail];
  ASSERT_EQ(total, expected.size());
  const std::vector<vid_t> got(buffers.bu_queue.host_data(),
                               buffers.bu_queue.host_data() + total);
  EXPECT_EQ(got, expected);  // globally sorted, exactly the unvisited set
}

TEST_F(KernelFixture, BottomUpSegmentCountsMatchHost) {
  std::mt19937_64 rng(9);
  std::vector<std::int32_t> levels(dg.n);
  for (vid_t v = 0; v < dg.n; ++v) levels[v] = (rng() & 1) ? 2 : -1;
  set_status(levels);
  const BottomUpArgs a = bottomup_args(2);
  launch_bu_count(dev, dev.stream(0), a, cfg);
  for (std::uint32_t seg = 0; seg < a.num_segments; ++seg) {
    std::uint32_t expected = 0;
    const std::uint64_t begin = std::uint64_t{seg} * a.segment_size;
    const std::uint64_t end =
        std::min<std::uint64_t>(dg.n, begin + a.segment_size);
    for (std::uint64_t v = begin; v < end; ++v) {
      if (levels[v] < 0) ++expected;
    }
    ASSERT_EQ(buffers.seg_counts.host_data()[seg], expected) << seg;
  }
}

TEST_F(KernelFixture, BottomUpExpandMatchesHostOneLevel) {
  const auto giant = graph::largest_component_vertices(host);
  const vid_t src = giant[0];
  const auto ref = graph::reference_bfs(host, src);
  const std::uint32_t k = 1;  // expand into level 2 bottom-up
  std::vector<std::int32_t> cut(ref.size());
  for (vid_t v = 0; v < dg.n; ++v) {
    cut[v] = (ref[v] >= 0 && ref[v] <= static_cast<std::int32_t>(k))
                 ? ref[v]
                 : -1;
  }
  set_status(cut);
  reset_counters();
  XbfsConfig c = cfg;
  c.enable_lookahead = false;  // exact one-level semantics for this test
  const BottomUpArgs a = bottomup_args(k);
  launch_bu_count(dev, dev.stream(0), a, c);
  launch_bu_scan_block(dev, dev.stream(0), a, c);
  launch_bu_scan_final(dev, dev.stream(0), a, c);
  const std::uint32_t candidates = counters()[kCurTail];
  launch_bu_queue_gen(dev, dev.stream(0), a, c);
  launch_bu_expand(dev, dev.stream(0), a, candidates, c);

  std::uint64_t expected_next = 0;
  for (vid_t v = 0; v < dg.n; ++v) {
    if (ref[v] == static_cast<std::int32_t>(k + 1)) {
      ++expected_next;
      ASSERT_EQ(buffers.status.host_data()[v], k + 1) << v;
    } else if (cut[v] < 0) {
      ASSERT_EQ(buffers.status.host_data()[v], kUnvisited) << v;
    }
  }
  EXPECT_EQ(counters()[kNextTail], expected_next);
  EXPECT_EQ(counters()[kPendingTail], 0u);
}

TEST_F(KernelFixture, BottomUpLookaheadPromotesOnlyNextNextLevel) {
  const auto giant = graph::largest_component_vertices(host);
  const vid_t src = giant[0];
  const auto ref = graph::reference_bfs(host, src);
  const std::uint32_t k = 1;
  std::vector<std::int32_t> cut(ref.size());
  for (vid_t v = 0; v < dg.n; ++v) {
    cut[v] = (ref[v] >= 0 && ref[v] <= static_cast<std::int32_t>(k))
                 ? ref[v]
                 : -1;
  }
  set_status(cut);
  reset_counters();
  XbfsConfig c = cfg;
  c.enable_lookahead = true;
  const BottomUpArgs a = bottomup_args(k);
  launch_bu_count(dev, dev.stream(0), a, c);
  launch_bu_scan_block(dev, dev.stream(0), a, c);
  launch_bu_scan_final(dev, dev.stream(0), a, c);
  const std::uint32_t candidates = counters()[kCurTail];
  launch_bu_queue_gen(dev, dev.stream(0), a, c);
  launch_bu_expand(dev, dev.stream(0), a, candidates, c);

  // Every claimed status must match the true BFS level (look-ahead may
  // leave some level-(k+2) vertices unclaimed — that is allowed — but must
  // never claim a wrong level).
  std::uint32_t promoted = 0;
  for (vid_t v = 0; v < dg.n; ++v) {
    const std::uint32_t st = buffers.status.host_data()[v];
    if (cut[v] >= 0) continue;
    if (st == kUnvisited) continue;
    ASSERT_EQ(st, static_cast<std::uint32_t>(ref[v])) << v;
    if (st == k + 2) ++promoted;
  }
  EXPECT_EQ(counters()[kPendingTail], promoted);
  // Look-ahead must fire on this graph (dense RMAT core).
  EXPECT_GT(promoted, 0u);
}

TEST_F(KernelFixture, BottomUpWarpCentricAgreesWithThreadCentric) {
  const auto giant = graph::largest_component_vertices(host);
  const auto ref = graph::reference_bfs(host, giant[0]);
  std::vector<std::uint32_t> results[2];
  for (int m = 0; m < 2; ++m) {
    std::vector<std::int32_t> cut(ref.size());
    for (vid_t v = 0; v < dg.n; ++v) {
      cut[v] = (ref[v] >= 0 && ref[v] <= 1) ? ref[v] : -1;
    }
    set_status(cut);
    reset_counters();
    XbfsConfig c = cfg;
    c.enable_lookahead = false;
    c.bottomup_warp_centric = (m == 1);
    const BottomUpArgs a = bottomup_args(1);
    launch_bu_count(dev, dev.stream(0), a, c);
    launch_bu_scan_block(dev, dev.stream(0), a, c);
    launch_bu_scan_final(dev, dev.stream(0), a, c);
    const std::uint32_t candidates = counters()[kCurTail];
    launch_bu_queue_gen(dev, dev.stream(0), a, c);
    launch_bu_expand(dev, dev.stream(0), a, candidates, c);
    results[m].assign(buffers.status.host_data(),
                      buffers.status.host_data() + dg.n);
  }
  EXPECT_EQ(results[0], results[1]);
}

TEST_F(KernelFixture, WarpCentricBottomUpWastesIssueSlots) {
  // The paper's Sec. IV-A observation, measurable in the model: at the
  // peak-ratio pass, early termination finds a parent within a probe or
  // two, so thread-centric lanes stay busy while warp-centric gather
  // issues a full 64-wide wavefront per vertex regardless.
  const auto giant = graph::largest_component_vertices(host);
  const auto ref = graph::reference_bfs(host, giant[0]);
  const std::int32_t k = 2;  // the frontier-mass peak on this RMAT
  double eff[2] = {0, 0};
  for (int m = 0; m < 2; ++m) {
    std::vector<std::int32_t> cut(ref.size());
    for (vid_t v = 0; v < dg.n; ++v) {
      cut[v] = (ref[v] >= 0 && ref[v] <= k) ? ref[v] : -1;
    }
    set_status(cut);
    reset_counters();
    XbfsConfig c = cfg;
    c.bottomup_warp_centric = (m == 1);
    const BottomUpArgs a = bottomup_args(k);
    launch_bu_count(dev, dev.stream(0), a, c);
    launch_bu_scan_block(dev, dev.stream(0), a, c);
    launch_bu_scan_final(dev, dev.stream(0), a, c);
    const std::uint32_t candidates = counters()[kCurTail];
    launch_bu_queue_gen(dev, dev.stream(0), a, c);
    const sim::LaunchResult r =
        launch_bu_expand(dev, dev.stream(0), a, candidates, c);
    eff[m] = r.counters.lane_efficiency();
  }
  EXPECT_LT(eff[1], eff[0] * 0.8);
}

TEST_F(KernelFixture, ClassifyBinsPartitionsQueueByDegree) {
  const auto giant = graph::largest_component_vertices(host);
  const auto ref = graph::reference_bfs(host, giant[0]);
  std::vector<vid_t> frontier;
  for (vid_t v = 0; v < dg.n; ++v) {
    if (ref[v] == 2) frontier.push_back(v);
  }
  std::copy(frontier.begin(), frontier.end(), buffers.queue_a.host_data());
  reset_counters();
  const TopDownArgs a = topdown_args(
      buffers.queue_a.cspan(), static_cast<std::uint32_t>(frontier.size()), 2);
  launch_classify_bins(dev, dev.stream(0), a, buffers.bin_small.span(),
                       buffers.bin_medium.span(), buffers.bin_large.span(),
                       cfg);
  const std::uint32_t ns = counters()[kBinSmall];
  const std::uint32_t nm = counters()[kBinMedium];
  const std::uint32_t nl = counters()[kBinLarge];
  EXPECT_EQ(ns + nm + nl, frontier.size());
  for (std::uint32_t i = 0; i < ns; ++i) {
    EXPECT_LT(host.degree(buffers.bin_small.host_data()[i]),
              kMediumMinDegree);
  }
  for (std::uint32_t i = 0; i < nm; ++i) {
    const vid_t v = buffers.bin_medium.host_data()[i];
    EXPECT_GE(host.degree(v), kMediumMinDegree);
    EXPECT_LT(host.degree(v), kLargeMinDegree);
  }
  for (std::uint32_t i = 0; i < nl; ++i) {
    EXPECT_GE(host.degree(buffers.bin_large.host_data()[i]),
              kLargeMinDegree);
  }
}

TEST_F(KernelFixture, AppendQueueCopiesRange) {
  for (vid_t i = 0; i < 100; ++i) buffers.pending_a.host_data()[i] = i * 2;
  for (vid_t i = 0; i < 50; ++i) buffers.queue_b.host_data()[i] = 1000 + i;
  launch_append_queue(dev, dev.stream(0), buffers.pending_a.cspan(), 100,
                      buffers.queue_b.span(), 50, 128);
  for (vid_t i = 0; i < 50; ++i) {
    ASSERT_EQ(buffers.queue_b.host_data()[i], 1000 + i);
  }
  for (vid_t i = 0; i < 100; ++i) {
    ASSERT_EQ(buffers.queue_b.host_data()[50 + i], i * 2);
  }
}

}  // namespace
}  // namespace xbfs::core
