// Tests for the distributed layer's building blocks: 1D partitioning,
// local-row extraction and the fabric cost model.  The distributed sweep
// itself is tested in test_shard.cpp.
#include <gtest/gtest.h>

#include "dist/interconnect.h"
#include "dist/partition.h"
#include "graph/builder.h"

namespace xbfs::dist {
namespace {

TEST(Partition1D, RangesCoverAndAreBalanced) {
  const Partition1D part(1000, 7);
  graph::vid_t covered = 0;
  for (unsigned p = 0; p < 7; ++p) {
    EXPECT_EQ(part.begin(p), covered);
    covered = part.end(p);
    EXPECT_LE(part.owned(p), 1000u / 7 + 1);
    EXPECT_GE(part.owned(p), 1000u / 7);
  }
  EXPECT_EQ(covered, 1000u);
}

TEST(Partition1D, OwnerIsConsistentWithRanges) {
  const Partition1D part(12345, 8);
  for (graph::vid_t v = 0; v < 12345; v += 7) {
    const unsigned p = part.owner(v);
    EXPECT_GE(v, part.begin(p));
    EXPECT_LT(v, part.end(p));
  }
  EXPECT_EQ(part.owner(0), 0u);
  EXPECT_EQ(part.owner(12344), 7u);
}

TEST(Partition1D, SinglePartOwnsEverything) {
  const Partition1D part(100, 1);
  EXPECT_EQ(part.owned(0), 100u);
  EXPECT_EQ(part.owner(99), 0u);
}

TEST(Partition1D, PartsExceedingVerticesYieldEmptyRanges) {
  // More parts than vertices: ranges stay contiguous and sorted, the extra
  // parts own nothing, and owner() still agrees with the ranges.
  const Partition1D part(3, 8);
  graph::vid_t covered = 0;
  for (unsigned p = 0; p < 8; ++p) {
    EXPECT_EQ(part.begin(p), covered);
    covered = part.end(p);
    EXPECT_LE(part.owned(p), 1u);
  }
  EXPECT_EQ(covered, 3u);
  for (graph::vid_t v = 0; v < 3; ++v) {
    const unsigned p = part.owner(v);
    EXPECT_GE(v, part.begin(p));
    EXPECT_LT(v, part.end(p));
  }
}

TEST(Partition1D, EmptyGraphHasOnlyEmptyRanges) {
  const Partition1D part(0, 4);
  for (unsigned p = 0; p < 4; ++p) {
    EXPECT_EQ(part.begin(p), 0u);
    EXPECT_EQ(part.owned(p), 0u);
  }
}

TEST(Partition1D, SingleVertexPartsOwnExactlyTheirIndex) {
  const Partition1D part(5, 5);
  for (graph::vid_t v = 0; v < 5; ++v) {
    EXPECT_EQ(part.owned(v), 1u);
    EXPECT_EQ(part.owner(v), v);
  }
}

TEST(Partition1D, OwnerAgreesWithRangesAcrossUnevenBoundaries) {
  // 10001 over 7 parts: every boundary is uneven, so the owner() jump
  // estimate must correct in both directions.  Check every vertex.
  const Partition1D part(10001, 7);
  unsigned expected = 0;
  for (graph::vid_t v = 0; v < 10001; ++v) {
    while (v >= part.end(expected)) ++expected;
    ASSERT_EQ(part.owner(v), expected) << "v=" << v;
  }
  EXPECT_EQ(expected, 6u);
}

TEST(Partition1D, LayoutHashIsStableAndSeparatesLayouts) {
  const Partition1D a(10000, 4);
  EXPECT_EQ(a.layout_hash(), Partition1D(10000, 4).layout_hash());
  EXPECT_NE(a.layout_hash(), Partition1D(10000, 8).layout_hash());
  EXPECT_NE(a.layout_hash(), Partition1D(10001, 4).layout_hash());
}

TEST(ExtractLocalRows, RebasedOffsetsAndGlobalColumns) {
  const graph::Csr g = graph::build_csr(6, {{0, 5}, {2, 3}, {4, 5}, {1, 4}});
  const Partition1D part(6, 2);  // [0,3) and [3,6)
  const LocalRows lo = extract_local_rows(g, part, 0);
  const LocalRows hi = extract_local_rows(g, part, 1);
  EXPECT_EQ(lo.num_rows, 3u);
  EXPECT_EQ(hi.first_vertex, 3u);
  EXPECT_EQ(lo.offsets.front(), 0u);
  EXPECT_EQ(lo.owned_edges + hi.owned_edges, g.num_edges());
  // Row 0 of the high part is global vertex 3, neighbor 2.
  EXPECT_EQ(hi.cols[hi.offsets[0]], 2u);
}

TEST(FabricModel, CollectiveCostsScaleSanely) {
  const FabricModel f = FabricModel::frontier();
  EXPECT_DOUBLE_EQ(f.allgather_us(1, 1 << 20), 0.0);
  EXPECT_DOUBLE_EQ(f.alltoall_us(1, 1 << 20), 0.0);
  // More devices move more total data per device (ring (g-1)/g factor).
  EXPECT_GT(f.allgather_us(8, 1 << 20), f.allgather_us(2, 1 << 20));
  // Crossing the node boundary drops to Slingshot bandwidth.
  EXPECT_GT(f.allgather_us(16, 1 << 24) / f.allgather_us(8, 1 << 24), 1.9);
  // 8 devices each sending every peer a distinct 64 KiB slice: the
  // all-to-all moves 7 slices per device, an allgather of all 56 pairs
  // moves 49, at the same 7 link latencies.
  const std::uint64_t slice = 1 << 16;
  EXPECT_LT(f.alltoall_us(8, 7 * slice), f.allgather_us(8, 56 * slice));
  EXPECT_DOUBLE_EQ(f.alltoall_us(8, 0), 7 * f.link_latency_us);
}

}  // namespace
}  // namespace xbfs::dist
