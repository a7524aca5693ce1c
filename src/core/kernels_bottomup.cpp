#include "core/kernels_bottomup.h"

#include <algorithm>
#include <array>

#include "core/status.h"
#include "hipsim/intrinsics.h"

namespace xbfs::core {

namespace {

using graph::vid_t;
using sim::mask_rank;
using sim::popcll;

constexpr unsigned kMaxWave = 64;

}  // namespace

unsigned bu_scan_blocks(const sim::DeviceProfile& profile,
                        std::uint32_t num_segments, unsigned block_threads) {
  // One block per ~block_threads segments, capped by CU count; the final
  // scan runs single-block over these partial sums, one thread per chunk,
  // so the block count must also fit in one block's thread count.
  const unsigned blocks =
      auto_grid_blocks(profile, num_segments, block_threads, /*waves=*/1);
  return std::max(1u, std::min(blocks, block_threads));
}

sim::LaunchResult launch_bu_count(sim::Device& dev, sim::LaunchTarget on,
                                  const BottomUpArgs& a,
                                  const XbfsConfig& cfg) {
  sim::LaunchConfig lc;
  lc.block_threads = cfg.block_threads;
  lc.grid_blocks = cfg.grid_blocks != 0
                       ? cfg.grid_blocks
                       : auto_grid_blocks(dev.profile(), a.num_segments,
                                          cfg.block_threads);
  return dev.launch(on, "xbfs_bu_count", lc, [=](sim::BlockCtx& blk) {
    zero_counter_set(blk, a.next_counters);
    auto& ctx = blk.ctx();
    blk.grid_stride(a.num_segments, [&](std::uint64_t seg) {
      const std::uint64_t begin = seg * a.segment_size;
      const std::uint64_t end =
          std::min<std::uint64_t>(a.n, begin + a.segment_size);
      std::uint32_t cnt = 0;
      for (std::uint64_t i = begin; i < end; ++i) {
        if (ctx.load(a.status, i) == kUnvisited) ++cnt;
      }
      ctx.slots(end - begin, end - begin);
      ctx.store(a.seg_counts, seg, cnt);
    });
  });
}

sim::LaunchResult launch_bu_scan_block(sim::Device& dev, sim::LaunchTarget on,
                                       const BottomUpArgs& a,
                                       const XbfsConfig& cfg) {
  const unsigned blocks =
      bu_scan_blocks(dev.profile(), a.num_segments, cfg.block_threads);
  const std::uint32_t chunk = (a.num_segments + blocks - 1) / blocks;
  sim::LaunchConfig lc;
  lc.block_threads = cfg.block_threads;
  lc.grid_blocks = blocks;
  return dev.launch(on, "xbfs_bu_scan_block", lc, [=](sim::BlockCtx& blk) {
    auto& ctx = blk.ctx();
    const std::uint32_t b = blk.block_id();
    const std::uint64_t begin = std::uint64_t{b} * chunk;
    const std::uint64_t end =
        std::min<std::uint64_t>(a.num_segments, begin + chunk);
    // The block's threads cooperatively sum the chunk (modelled as a
    // block-wide reduction pass).
    std::uint32_t sum = 0;
    for (std::uint64_t i = begin; i < end; ++i) {
      sum += ctx.load(a.seg_counts, i);
    }
    if (begin < end) ctx.slots(end - begin, end - begin);
    ctx.store(a.block_sums, b, sum);
  });
}

sim::LaunchResult launch_bu_scan_final(sim::Device& dev, sim::LaunchTarget on,
                                       const BottomUpArgs& a,
                                       const XbfsConfig& cfg) {
  const unsigned blocks =
      bu_scan_blocks(dev.profile(), a.num_segments, cfg.block_threads);
  const std::uint32_t chunk = (a.num_segments + blocks - 1) / blocks;
  sim::LaunchConfig lc;
  lc.block_threads = cfg.block_threads;
  lc.grid_blocks = 1;  // single block finishes the scan
  return dev.launch(on, "xbfs_bu_scan_final", lc, [=](sim::BlockCtx& blk) {
    auto& ctx = blk.ctx();
    // Phase 1: exclusive scan of the per-block partial sums (sequential in
    // the leader thread; `blocks` is at most a few hundred).
    std::uint32_t* scanned = blk.shmem().alloc<std::uint32_t>(blocks);
    std::uint32_t acc = 0;
    for (unsigned b = 0; b < blocks; ++b) {
      scanned[b] = acc;
      acc += ctx.load(a.block_sums, b);
    }
    ctx.slots(blocks, blocks);
    // Total bottom-up candidates; k5 reads it on the device.
    ctx.store(a.counters, kCurTail, acc);
    blk.sync();
    // Phase 2: one thread per chunk walks its segments, materializing the
    // exclusive per-segment offsets.
    blk.threads([&](unsigned t) {
      if (t >= blocks) return;
      const std::uint64_t begin = std::uint64_t{t} * chunk;
      const std::uint64_t end =
          std::min<std::uint64_t>(a.num_segments, begin + chunk);
      std::uint32_t base = scanned[t];
      for (std::uint64_t segi = begin; segi < end; ++segi) {
        ctx.store(a.seg_offsets, segi, base);
        base += ctx.load(a.seg_counts, segi);
      }
    });
  });
}

sim::LaunchResult launch_bu_queue_gen(sim::Device& dev, sim::LaunchTarget on,
                                      const BottomUpArgs& a,
                                      const XbfsConfig& cfg) {
  sim::LaunchConfig lc;
  lc.block_threads = cfg.block_threads;
  lc.grid_blocks = cfg.grid_blocks != 0
                       ? cfg.grid_blocks
                       : auto_grid_blocks(dev.profile(), a.num_segments,
                                          cfg.block_threads);
  return dev.launch(on, "xbfs_bu_queue_gen", lc, [=](sim::BlockCtx& blk) {
    auto& ctx = blk.ctx();
    blk.grid_stride(a.num_segments, [&](std::uint64_t seg) {
      const std::uint64_t begin = seg * a.segment_size;
      const std::uint64_t end =
          std::min<std::uint64_t>(a.n, begin + a.segment_size);
      std::uint32_t cursor = ctx.load(a.seg_offsets, seg);
      for (std::uint64_t i = begin; i < end; ++i) {
        if (ctx.load(a.status, i) == kUnvisited) {
          ctx.store(a.bu_queue, cursor++, static_cast<vid_t>(i));
        }
      }
      ctx.slots(end - begin, end - begin);
    });
  });
}

namespace {

/// Per-chunk result of the early-terminating neighbor scans.
struct BuChunkResult {
  std::uint64_t won = 0;      ///< lanes whose vertex joins level+1
  std::uint64_t pending = 0;  ///< lanes promoted to level+2 (look-ahead)
  std::array<vid_t, kMaxWave> match_parent{};
};

/// Thread-centric bottom-up scan: each lane walks its own vertex's
/// adjacency list and stops at the first level-`cur` neighbor.  Divergence
/// cost is the longest walk in the batch.
/// Probe whether neighbor `w` is in the current frontier / was claimed at
/// the next level, through either the 4-byte status array or — with the
/// bit-status extension — the 1-bit frontier bitmaps.
struct NeighborProbe {
  bool in_cur = false;
  bool in_next = false;
};

NeighborProbe probe_neighbor(sim::ExecCtx& ctx, const BottomUpArgs& a,
                             vid_t w, bool want_next) {
  NeighborProbe p;
  if (a.bitmap_cur.empty()) {
    const std::uint32_t st = ctx.atomic_load(a.status, w);
    p.in_cur = st == a.cur_level;
    p.in_next = want_next && st == a.cur_level + 1;
    return p;
  }
  const std::uint64_t bit = std::uint64_t{1} << (w % 64);
  p.in_cur = (ctx.atomic_load(a.bitmap_cur, w / 64) & bit) != 0;
  if (!p.in_cur && want_next) {
    p.in_next = (ctx.atomic_load(a.bitmap_next, w / 64) & bit) != 0;
  }
  return p;
}

BuChunkResult bu_scan_thread_centric(sim::ExecCtx& ctx, const BottomUpArgs& a,
                                     const std::array<vid_t, kMaxWave>& u,
                                     std::uint64_t valid, unsigned W,
                                     bool lookahead) {
  BuChunkResult r;
  std::uint64_t max_steps = 0, total_steps = 0;
  for (unsigned l = 0; l < W; ++l) {
    if (!(valid & (std::uint64_t{1} << l))) continue;
    const graph::DeviceAdjacency::Row row = a.adj.row(ctx, u[l]);
    std::uint64_t steps = 0;
    bool found_next = false;
    vid_t next_parent = 0;
    for (std::uint32_t j = 0; j < row.len(); ++j) {
      const vid_t w = a.adj.at(ctx, row, j);
      ++steps;
      if (w == graph::kTombstone) continue;
      const NeighborProbe p =
          probe_neighbor(ctx, a, w, lookahead && !found_next);
      if (p.in_cur) {
        // Early termination: one visited parent suffices.
        r.won |= std::uint64_t{1} << l;
        r.match_parent[l] = w;
        break;
      }
      if (p.in_next) {
        found_next = true;  // keep scanning: a level-`cur` parent wins
        next_parent = w;
      }
    }
    if (!(r.won & (std::uint64_t{1} << l)) && found_next) {
      r.pending |= std::uint64_t{1} << l;
      r.match_parent[l] = next_parent;
    }
    max_steps = std::max(max_steps, steps);
    total_steps += steps;
  }
  // SIMT cost: two ops per step (neighbor load + status check), the
  // wavefront is resident for the longest lane's walk.
  ctx.slots(std::uint64_t{2} * W * std::max<std::uint64_t>(max_steps, 1),
            std::uint64_t{2} * total_steps);
  return r;
}

/// Wavefront-centric bottom-up scan: all W lanes sweep one vertex's list
/// per iteration.  With 64-wide AMD wavefronts and typical one-or-two-step
/// early termination this idles most lanes — the effect that made the paper
/// disable warp-centric balancing in the bottom-up phase.
BuChunkResult bu_scan_wavefront_centric(sim::ExecCtx& ctx,
                                        const BottomUpArgs& a,
                                        const std::array<vid_t, kMaxWave>& u,
                                        std::uint64_t valid, unsigned W,
                                        bool lookahead) {
  BuChunkResult r;
  for (unsigned owner = 0; owner < W; ++owner) {
    if (!(valid & (std::uint64_t{1} << owner))) continue;
    const graph::DeviceAdjacency::Row row = a.adj.row(ctx, u[owner]);
    bool found_cur = false, found_next = false;
    vid_t cur_parent = 0, next_parent = 0;
    for (std::uint32_t chunk = 0; chunk < row.len() && !found_cur;
         chunk += W) {
      const unsigned width = std::min(W, row.len() - chunk);
      for (unsigned l = 0; l < width; ++l) {
        const vid_t w = a.adj.at(ctx, row, chunk + l);
        if (w == graph::kTombstone) continue;
        const NeighborProbe p =
            probe_neighbor(ctx, a, w, lookahead && !found_next);
        if (p.in_cur && !found_cur) {
          found_cur = true;
          cur_parent = w;
        } else if (p.in_next) {
          found_next = true;
          next_parent = w;
        }
      }
      // Full wavefront issued regardless of list length, plus the ballot
      // that communicates the hit.
      ctx.slots(std::uint64_t{3} * W, std::uint64_t{2} * width);
    }
    if (found_cur) {
      r.won |= std::uint64_t{1} << owner;
      r.match_parent[owner] = cur_parent;
    } else if (found_next) {
      r.pending |= std::uint64_t{1} << owner;
      r.match_parent[owner] = next_parent;
    }
  }
  return r;
}

}  // namespace

sim::LaunchResult launch_bu_expand(sim::Device& dev, sim::LaunchTarget on,
                                   const BottomUpArgs& a,
                                   std::uint32_t grid_candidates,
                                   const XbfsConfig& cfg) {
  sim::LaunchConfig lc;
  lc.block_threads = cfg.block_threads;
  lc.grid_blocks =
      cfg.grid_blocks != 0
          ? cfg.grid_blocks
          : auto_grid_blocks(dev.profile(),
                             std::max<std::uint32_t>(grid_candidates, 1),
                             cfg.block_threads);
  lc.lane_work_multiplier = cfg.bottomup_spill_factor;
  const bool warp_centric = cfg.bottomup_warp_centric;
  const bool lookahead = cfg.enable_lookahead;
  return dev.launch(on, "xbfs_bu_expand", lc, [=](sim::BlockCtx& blk) {
    auto& ctx = blk.ctx();
    const std::uint32_t candidates = ctx.load(a.counters, kCurTail);
    blk.wavefronts([&](sim::WavefrontCtx& wf, unsigned) {
      const unsigned W = wf.size();
      const std::uint64_t total_wfs =
          std::uint64_t{blk.grid_blocks()} * blk.wavefronts_per_block();
      const std::uint32_t next_level = a.cur_level + 1;
      for (std::uint64_t base = std::uint64_t{wf.id()} * W; base < candidates;
           base += total_wfs * W) {
        std::array<vid_t, kMaxWave> u{};
        std::uint64_t valid = 0;
        unsigned active = 0;
        for (unsigned l = 0; l < W; ++l) {
          const std::uint64_t i = base + l;
          if (i >= candidates) continue;
          u[l] = ctx.load(a.bu_queue, i);
          valid |= std::uint64_t{1} << l;
          ++active;
        }
        ctx.slots(W, active);
        if (valid == 0) continue;

        const BuChunkResult r =
            warp_centric
                ? bu_scan_wavefront_centric(ctx, a, u, valid, W, lookahead)
                : bu_scan_thread_centric(ctx, a, u, valid, W, lookahead);

        // Commit statuses (each candidate is owned by exactly one lane, so
        // plain stores are race-free) and gather degrees for the ratio.
        const auto commit = [&](std::uint64_t mask, std::uint32_t level,
                                sim::dspan<graph::vid_t> out_queue,
                                sim::dspan<std::uint64_t> out_bitmap,
                                std::size_t tail_slot,
                                std::size_t edge_slot) {
          if (mask == 0) return;
          std::uint64_t degree_sum = 0;
          for (unsigned l = 0; l < W; ++l) {
            if (!(mask & (std::uint64_t{1} << l))) continue;
            {
              // The paper's intentional look-ahead race (HPDC'19 v7->v8):
              // this plain commit store runs while other blocks' scans still
              // probe status atomically in the same pass.  A probe observing
              // the pre-commit value merely defers its vertex to the pending
              // queue; no traversal result changes.
              sim::racy_ok allow(ctx,
                                 "bottom-up look-ahead: plain status commit "
                                 "vs same-pass neighbor probes (HPDC'19 "
                                 "v7->v8); stale probes only defer work");
              ctx.store(a.status, u[l], level);
            }
            if (!out_bitmap.empty()) {
              ctx.atomic_or(out_bitmap, u[l] / 64,
                            std::uint64_t{1} << (u[l] % 64));
            }
            if (!a.parent.empty()) {
              ctx.store(a.parent, u[l], r.match_parent[l]);
            }
            degree_sum += a.adj.base_len(ctx, u[l]);
          }
          ctx.slots(W, std::uint64_t{3} * popcll(mask));
          const std::uint32_t qbase = ctx.atomic_add(
              a.counters, tail_slot,
              static_cast<std::uint32_t>(popcll(mask)));
          for (unsigned l = 0; l < W; ++l) {
            if (!(mask & (std::uint64_t{1} << l))) continue;
            ctx.store(out_queue, qbase + mask_rank(mask, l), u[l]);
          }
          ctx.slots(W, popcll(mask));
          ctx.atomic_add(a.edge_counters, edge_slot, degree_sum);
        };
        commit(r.won, next_level, a.next_queue, a.bitmap_next, kNextTail,
               kNextEdges);
        commit(r.pending, next_level + 1, a.pending_queue, a.bitmap_nextnext,
               kPendingTail, kPendingEdges);
      }
    });
  });
}

}  // namespace xbfs::core
