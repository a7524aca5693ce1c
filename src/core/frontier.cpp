#include "core/frontier.h"

#include "core/status.h"

namespace xbfs::core {

BfsBuffers BfsBuffers::allocate(sim::Device& dev, graph::vid_t n,
                                std::uint32_t segment_size,
                                std::uint32_t scan_blocks, bool with_parents,
                                bool with_bins, bool with_bitmaps) {
  BfsBuffers b;
  b.status = dev.alloc<std::uint32_t>(n, "bfs.status");
  if (with_parents) b.parent = dev.alloc<graph::vid_t>(n, "bfs.parent");
  b.queue_a = dev.alloc<graph::vid_t>(n, "bfs.queue_a");
  b.queue_b = dev.alloc<graph::vid_t>(n, "bfs.queue_b");
  b.pending_a = dev.alloc<graph::vid_t>(n, "bfs.pending_a");
  b.pending_b = dev.alloc<graph::vid_t>(n, "bfs.pending_b");
  b.bu_queue = dev.alloc<graph::vid_t>(n, "bfs.bu_queue");
  for (CounterSet& set : b.counter_sets) {
    set.counters = dev.alloc<std::uint32_t>(kNumCounters, "bfs.counters");
    set.edge_counters =
        dev.alloc<std::uint64_t>(kNumEdgeCounters, "bfs.edge_counters");
  }
  b.segment_size = segment_size;
  b.num_segments = (n + segment_size - 1) / segment_size;
  b.seg_counts = dev.alloc<std::uint32_t>(b.num_segments, "bfs.seg_counts");
  b.seg_offsets = dev.alloc<std::uint32_t>(b.num_segments, "bfs.seg_offsets");
  b.block_sums = dev.alloc<std::uint32_t>(scan_blocks, "bfs.block_sums");
  if (with_bins) {
    b.bin_small = dev.alloc<graph::vid_t>(n, "bfs.bin_small");
    b.bin_medium = dev.alloc<graph::vid_t>(n, "bfs.bin_medium");
    b.bin_large = dev.alloc<graph::vid_t>(n, "bfs.bin_large");
  }
  if (with_bitmaps) {
    const std::size_t words = b.bitmap_words(n);
    for (auto& bm : b.bitmaps) {
      bm = dev.alloc<std::uint64_t>(words, "bfs.bitmap");
    }
  }
  return b;
}

void zero_counter_set(sim::BlockCtx& blk, const CounterSpans& set) {
  if (blk.block_id() != 0 || set.empty()) return;
  auto& ctx = blk.ctx();
  blk.threads([&](unsigned t) {
    if (t < kNumCounters) ctx.store(set.counters, t, std::uint32_t{0});
    if (t < kNumEdgeCounters) ctx.store(set.edge_counters, t, std::uint64_t{0});
  });
}

void launch_init(sim::Device& dev, sim::LaunchTarget on, BfsBuffers& b,
                 graph::vid_t src, unsigned block_threads) {
  auto status = b.status.span();
  auto parent =
      b.parent.empty() ? sim::dspan<graph::vid_t>() : b.parent.span();
  sim::dspan<std::uint64_t> maps[3];
  if (!b.bitmaps[0].empty()) {
    for (int i = 0; i < 3; ++i) maps[i] = b.bitmaps[i].span();
  }
  auto queue = b.queue_a.span();
  const CounterSpans sets[3] = {b.counter_sets[0].spans(),
                                b.counter_sets[1].spans(),
                                b.counter_sets[2].spans()};
  sim::LaunchConfig cfg;
  cfg.block_threads = block_threads;
  cfg.grid_blocks =
      auto_grid_blocks(dev.profile(), status.size(), block_threads);
  dev.launch(on, "xbfs_init", cfg, [=](sim::BlockCtx& blk) {
    auto& ctx = blk.ctx();
    blk.grid_stride(status.size(), [&](std::uint64_t v) {
      const bool is_src = v == src;
      ctx.store(status, v, is_src ? std::uint32_t{0} : kUnvisited);
      if (!parent.empty()) ctx.store(parent, v, is_src ? src : kNoParent);
    });
    if (!maps[0].empty()) {
      blk.grid_stride(maps[0].size(), [&](std::uint64_t w) {
        const std::uint64_t src_bit =
            w == src / 64 ? std::uint64_t{1} << (src % 64) : 0;
        ctx.store(maps[0], w, src_bit);
        ctx.store(maps[1], w, std::uint64_t{0});
        ctx.store(maps[2], w, std::uint64_t{0});
      });
    }
    if (blk.block_id() == 0) ctx.store(queue, 0, src);
    for (const CounterSpans& set : sets) zero_counter_set(blk, set);
  });
}

void launch_clear_bitmap(sim::Device& dev, sim::LaunchTarget on,
                         sim::dspan<std::uint64_t> bitmap,
                         unsigned block_threads) {
  sim::LaunchConfig cfg;
  cfg.block_threads = block_threads;
  cfg.grid_blocks =
      auto_grid_blocks(dev.profile(), bitmap.size(), block_threads);
  dev.launch(on, "xbfs_clear_bitmap", cfg, [=](sim::BlockCtx& blk) {
    auto& ctx = blk.ctx();
    blk.grid_stride(bitmap.size(), [&](std::uint64_t i) {
      ctx.store(bitmap, i, std::uint64_t{0});
    });
  });
}

void launch_pack_levels(sim::Device& dev, sim::LaunchTarget on,
                        sim::dspan<const std::uint32_t> status,
                        sim::dspan<std::uint8_t> levels8,
                        unsigned block_threads) {
  sim::LaunchConfig cfg;
  cfg.block_threads = block_threads;
  cfg.grid_blocks =
      auto_grid_blocks(dev.profile(), status.size(), block_threads);
  dev.launch(on, "xbfs_pack_levels", cfg, [=](sim::BlockCtx& blk) {
    auto& ctx = blk.ctx();
    blk.grid_stride(status.size(), [&](std::uint64_t v) {
      const std::uint32_t st = ctx.load(status, v);
      ctx.store_nontemporal(levels8, v,
                            st == kUnvisited ? kUnvisited8
                                             : static_cast<std::uint8_t>(st));
    });
  });
}

void launch_append_queue(sim::Device& dev, sim::LaunchTarget on,
                         sim::dspan<const graph::vid_t> src_queue,
                         std::uint32_t count,
                         sim::dspan<graph::vid_t> dst_queue,
                         std::uint32_t dst_offset, unsigned block_threads) {
  if (count == 0) return;
  sim::LaunchConfig cfg;
  cfg.block_threads = block_threads;
  cfg.grid_blocks = auto_grid_blocks(dev.profile(), count, block_threads);
  dev.launch(on, "xbfs_append_pending", cfg, [=](sim::BlockCtx& blk) {
    auto& ctx = blk.ctx();
    blk.grid_stride(count, [&](std::uint64_t i) {
      ctx.store(dst_queue, dst_offset + i, ctx.load(src_queue, i));
    });
  });
}

LevelCounters read_counters(sim::Device& dev, sim::Stream& s,
                            const CounterSet& set) {
  // Models the per-level hipMemcpyDtoH of the counter block — the
  // host/device interaction that dominates tiny graphs like Dblp.  One
  // typed transfer covers both counter buffers of the set and marks them
  // host-synced for SimSan.
  dev.memcpy_d2h(s, set.counters, set.edge_counters);
  LevelCounters c;
  c.next_count = set.counters.h_read(kNextTail);
  c.pending_count = set.counters.h_read(kPendingTail);
  c.new_count = set.counters.h_read(kNewCount);
  c.cur_count = set.counters.h_read(kCurTail);
  c.next_edges = set.edge_counters.h_read(kNextEdges);
  c.pending_edges = set.edge_counters.h_read(kPendingEdges);
  return c;
}

LevelCounters load_counters(sim::ExecCtx& ctx, const CounterSpans& set) {
  // Non-temporal: the one-shot control reads leave the L2's replacement
  // state to the strategy kernels.
  LevelCounters c;
  c.next_count = ctx.load_nontemporal(set.counters, kNextTail);
  c.pending_count = ctx.load_nontemporal(set.counters, kPendingTail);
  c.new_count = ctx.load_nontemporal(set.counters, kNewCount);
  c.cur_count = ctx.load_nontemporal(set.counters, kCurTail);
  c.next_edges = ctx.load_nontemporal(set.edge_counters, kNextEdges);
  c.pending_edges = ctx.load_nontemporal(set.edge_counters, kPendingEdges);
  return c;
}

}  // namespace xbfs::core
