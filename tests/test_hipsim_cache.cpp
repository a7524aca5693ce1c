// Unit tests for the L2 cache model: hit/miss behaviour, LRU replacement,
// write-back accounting, payload-based service accounting, sharding and
// invalidation.
#include <gtest/gtest.h>

#include "hipsim/mem_model.h"

namespace xbfs::sim {
namespace {

TEST(CacheShard, ColdMissThenHit) {
  CacheShard shard(64 * 1024, 64, 4);
  EXPECT_FALSE(shard.access(42, false).hit);
  EXPECT_TRUE(shard.access(42, false).hit);
  EXPECT_TRUE(shard.access(42, true).hit);
}

TEST(CacheShard, DistinctLinesMissIndependently) {
  CacheShard shard(64 * 1024, 64, 4);
  for (std::uint64_t line = 0; line < 16; ++line) {
    EXPECT_FALSE(shard.access(line, false).hit) << line;
  }
  for (std::uint64_t line = 0; line < 16; ++line) {
    EXPECT_TRUE(shard.access(line, false).hit) << line;
  }
}

TEST(CacheShard, CapacityEvictionIsLru) {
  // 1 set x 4 ways: exactly four lines mapping to the same set fit.
  CacheShard shard(4 * 64, 64, 4);
  ASSERT_EQ(shard.num_sets(), 1u);
  // Fill the set; line 0 becomes least recently used.
  for (std::uint64_t line = 0; line < 4; ++line) shard.access(line, false);
  // Touch 1..3 so 0 stays LRU.
  for (std::uint64_t line = 1; line < 4; ++line) shard.access(line, false);
  shard.access(99, false);  // evicts line 0
  EXPECT_TRUE(shard.access(1, false).hit);
  EXPECT_TRUE(shard.access(2, false).hit);
  EXPECT_TRUE(shard.access(3, false).hit);
  EXPECT_FALSE(shard.access(0, false).hit);  // was evicted
}

TEST(CacheShard, DirtyEvictionReportsWriteback) {
  CacheShard shard(4 * 64, 64, 4);
  ASSERT_EQ(shard.num_sets(), 1u);
  shard.access(0, true);  // dirty
  for (std::uint64_t line = 1; line < 4; ++line) shard.access(line, false);
  bool saw_writeback = false;
  // Insert new lines until the dirty one is evicted.
  for (std::uint64_t line = 10; line < 20; ++line) {
    if (shard.access(line, false).writeback) saw_writeback = true;
  }
  EXPECT_TRUE(saw_writeback);
}

TEST(CacheShard, CleanEvictionHasNoWriteback) {
  CacheShard shard(4 * 64, 64, 4);
  for (std::uint64_t line = 0; line < 32; ++line) {
    EXPECT_FALSE(shard.access(line, false).writeback) << line;
  }
}

TEST(CacheShard, InvalidateDropsEverything) {
  CacheShard shard(64 * 1024, 64, 4);
  shard.access(7, false);
  ASSERT_TRUE(shard.access(7, false).hit);
  shard.invalidate_all();
  EXPECT_FALSE(shard.access(7, false).hit);
}

DeviceProfile tiny_profile() {
  DeviceProfile p = DeviceProfile::test_profile();
  p.l2_bytes = 16 * 1024;
  p.l2_line_bytes = 64;
  p.l2_ways = 4;
  return p;
}

TEST(L2Model, CountsHitsMissesAndFetch) {
  L2Model l2(tiny_profile(), 4);
  KernelCounters c;
  l2.access(0, 4, false, c);    // miss, fetch one line
  l2.access(4, 4, false, c);    // same line: hit
  l2.access(64, 4, false, c);   // next line: miss
  EXPECT_EQ(c.l2_misses, 2u);
  EXPECT_EQ(c.l2_hits, 1u);
  EXPECT_EQ(c.fetch_bytes, 2u * 64u);
  EXPECT_EQ(c.l2_hit_bytes, 4u);
}

TEST(L2Model, CrossLineAccessTouchesEveryCoveredLine) {
  L2Model l2(tiny_profile(), 4);
  KernelCounters c;
  l2.access(60, 8, false, c);  // spans lines 0 and 1
  EXPECT_EQ(c.l2_misses + c.l2_hits, 2u);
  EXPECT_EQ(c.l2_misses, 2u);
  EXPECT_EQ(c.fetch_bytes, 2u * 64u);
}

TEST(L2Model, HitPayloadSumsToCoalescedTraffic) {
  // 16 consecutive 4-byte probes over one line: 1 miss + 15 hits whose
  // payload sums to 60 bytes (the coalesced remainder of the line).
  L2Model l2(tiny_profile(), 4);
  KernelCounters c;
  for (unsigned i = 0; i < 16; ++i) l2.access(i * 4, 4, false, c);
  EXPECT_EQ(c.l2_misses, 1u);
  EXPECT_EQ(c.l2_hits, 15u);
  EXPECT_EQ(c.l2_hit_bytes, 60u);
}

TEST(L2Model, WorkingSetLargerThanCacheThrashes) {
  L2Model l2(tiny_profile(), 4);  // 16 KB total
  KernelCounters c;
  const std::uint64_t big = 1024 * 1024;  // 1 MB stream, twice
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t a = 0; a < big; a += 64) l2.access(a, 4, false, c);
  }
  // Second pass cannot hit: every line was evicted long before reuse.
  EXPECT_EQ(c.l2_hits, 0u);
  EXPECT_EQ(c.l2_misses, 2u * big / 64);
}

TEST(L2Model, WorkingSetSmallerThanCacheIsResident) {
  L2Model l2(tiny_profile(), 4);  // 16 KB
  KernelCounters c;
  const std::uint64_t small = 4 * 1024;
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t a = 0; a < small; a += 64) l2.access(a, 4, false, c);
  }
  // First pass misses, later passes hit.
  EXPECT_EQ(c.l2_misses, small / 64);
  EXPECT_EQ(c.l2_hits, 2 * small / 64);
}

TEST(L2Model, ShardCountRoundsToPowerOfTwo) {
  L2Model l2(tiny_profile(), 5);
  EXPECT_EQ(l2.n_shards(), 4u);
  L2Model l2b(tiny_profile(), 64);
  EXPECT_EQ(l2b.n_shards(), 64u);
}

TEST(L2Model, InvalidateAllDropsResidency) {
  L2Model l2(tiny_profile(), 4);
  KernelCounters c;
  l2.access(128, 4, false, c);
  l2.invalidate_all();
  l2.access(128, 4, false, c);
  EXPECT_EQ(c.l2_misses, 2u);
}

TEST(KernelCounters, AggregationAndDerivedMetrics) {
  KernelCounters a, b;
  a.l2_hits = 3;
  a.l2_misses = 1;
  a.fetch_bytes = 128;
  b.l2_hits = 1;
  b.l2_misses = 3;
  b.fetch_bytes = 384;
  a += b;
  EXPECT_EQ(a.l2_hits, 4u);
  EXPECT_EQ(a.l2_misses, 4u);
  EXPECT_DOUBLE_EQ(a.l2_hit_pct(), 50.0);
  EXPECT_DOUBLE_EQ(a.fetch_kb(), 0.5);
}

TEST(KernelCounters, LaneEfficiencyDefaultsToOne) {
  KernelCounters c;
  EXPECT_DOUBLE_EQ(c.lane_efficiency(), 1.0);
  c.lane_slots = 128;
  c.active_lanes = 64;
  EXPECT_DOUBLE_EQ(c.lane_efficiency(), 0.5);
}

TEST(MemProbe, RecordsReadsWritesAndAtomics) {
  L2Model l2(tiny_profile(), 4);
  KernelCounters c;
  MemProbe probe(&l2, &c);
  probe.read(0, 4);
  probe.write(64, 8);
  probe.atomic_rmw(128, 4);
  EXPECT_EQ(c.mem_reads, 1u);
  EXPECT_EQ(c.mem_writes, 1u);
  EXPECT_EQ(c.atomics, 1u);
  EXPECT_EQ(c.bytes_read, 4u + 4u);      // read + atomic read side
  EXPECT_EQ(c.bytes_written, 8u + 4u);   // write + atomic write side
}

TEST(MemProbe, ConsecutiveStreamingReadsOfOneLineFetchItOnce) {
  // 32 consecutive 4-byte non-temporal reads cover one 128-byte line of a
  // cold L2: one fetch, and the other 31 loads coalesce into it.
  DeviceProfile p = tiny_profile();
  p.l2_line_bytes = 128;
  L2Model l2(p, 4);
  KernelCounters c;
  MemProbe probe(&l2, &c);
  probe.begin_block();
  for (unsigned i = 0; i < 32; ++i) probe.read_nontemporal(4096 + 4 * i, 4);
  EXPECT_EQ(c.fetch_bytes, 128u) << "not 32 x 128 B = 4 KiB";
  EXPECT_EQ(c.l2_misses, 1u);
  EXPECT_EQ(c.l2_hits, 31u);
  EXPECT_EQ(c.l2_hit_bytes, 31u * 4u);
  // Streaming allocates nothing, so the next block fetches the line again.
  probe.begin_block();
  probe.read_nontemporal(4096, 4);
  EXPECT_EQ(c.fetch_bytes, 256u);
  // Another line in between breaks the run.
  probe.read_nontemporal(8192, 4);
  probe.read_nontemporal(4100, 4);
  EXPECT_EQ(c.fetch_bytes, 512u);
}

}  // namespace
}  // namespace xbfs::sim
