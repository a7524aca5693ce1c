#include "core/kernels_topdown.h"

#include <algorithm>
#include <array>

#include "core/status.h"
#include "hipsim/intrinsics.h"

namespace xbfs::core {

namespace {

using graph::vid_t;
using sim::lane_mask_lt;
using sim::mask_rank;
using sim::popcll;

constexpr unsigned kMaxWave = 64;

/// Per-chunk lane state for the gather helpers.
struct LaneChunk {
  std::array<vid_t, kMaxWave> v{};  ///< frontier vertex per lane
  std::array<graph::DeviceAdjacency::Row, kMaxWave> row{};
  std::uint64_t valid = 0;
};

/// Load a wavefront-wide chunk of the frontier queue plus each vertex's
/// adjacency extent.  Three loads per active lane (plus the overlay lookup
/// of a dynamic mirror).
LaneChunk load_chunk(sim::ExecCtx& ctx, const TopDownArgs& a,
                     sim::dspan<const vid_t> queue, std::uint32_t queue_size,
                     std::uint64_t base, unsigned W) {
  LaneChunk c;
  unsigned active = 0;
  for (unsigned l = 0; l < W; ++l) {
    const std::uint64_t i = base + l;
    if (i >= queue_size) continue;
    c.v[l] = ctx.load(queue, i);
    c.row[l] = a.adj.row(ctx, c.v[l]);
    c.valid |= std::uint64_t{1} << l;
    ++active;
  }
  ctx.slots(std::uint64_t{3} * W, std::uint64_t{3} * active);
  return c;
}

/// Visit a wavefront-wide batch of neighbor candidates: check status,
/// claim (CAS or plain store), record parents, count degrees, and either
/// enqueue winners (scan-free) or bump the newly-visited counter
/// (single-scan).  `targets[l]` is the candidate of lane l when bit l of
/// `act` is set; `par[l]` is the frontier vertex that discovered it.
template <bool kCas, bool kEnqueue>
void visit_targets(sim::ExecCtx& ctx, const TopDownArgs& a,
                   const std::array<vid_t, kMaxWave>& targets,
                   const std::array<vid_t, kMaxWave>& par, std::uint64_t act,
                   unsigned W) {
  const std::uint32_t next_level = a.cur_level + 1;
  std::uint64_t won = 0;
  std::uint64_t atomics_done = 0;
  {
    // The claim loop tolerates cross-block races by design (HPDC'19): the
    // status pre-check may read a word another block claims concurrently (a
    // stale value only costs a redundant atomic), the non-CAS claim stores
    // the same level from every discoverer, and in that mode the parent
    // store is last-writer-wins among equally valid parents.
    sim::racy_ok allow(ctx,
                       "top-down claim: status pre-check / benign same-value "
                       "store; any discovering parent is valid");
    for (unsigned l = 0; l < W; ++l) {
      if (!(act & (std::uint64_t{1} << l))) continue;
      const vid_t w = targets[l];
      // Cheap pre-check before the atomic, as XBFS does.
      const std::uint32_t st = ctx.load(a.status, w);
      if (st != kUnvisited) continue;
      if constexpr (kCas) {
        const std::uint32_t old =
            ctx.atomic_cas(a.status, w, kUnvisited, next_level);
        ++atomics_done;
        if (old != kUnvisited) continue;  // lost the race
      } else {
        // Benign race: all writers store the same level value.
        ctx.store(a.status, w, next_level);
      }
      won |= std::uint64_t{1} << l;
      if (!a.parent.empty()) ctx.store(a.parent, w, par[l]);
      if (!a.bitmap_next.empty()) {
        ctx.atomic_or(a.bitmap_next, w / 64, std::uint64_t{1} << (w % 64));
      }
    }
  }
  ctx.slots(W, popcll(act) + atomics_done);
  if (won == 0) return;

  // Degrees of the newly visited vertices feed the adaptive controller's
  // ratio (and, in XBFS, next-level degree binning).
  std::uint64_t degree_sum = 0;
  for (unsigned l = 0; l < W; ++l) {
    if (!(won & (std::uint64_t{1} << l))) continue;
    degree_sum += a.adj.base_len(ctx, targets[l]);
  }
  ctx.slots(W, std::uint64_t{2} * popcll(won));

  if constexpr (kEnqueue) {
    // Warp-aggregated enqueue: one atomic per wavefront batch.
    const std::uint32_t base = ctx.atomic_add(
        a.counters, kNextTail, static_cast<std::uint32_t>(popcll(won)));
    for (unsigned l = 0; l < W; ++l) {
      if (!(won & (std::uint64_t{1} << l))) continue;
      ctx.store(a.next_queue, base + mask_rank(won, l), targets[l]);
    }
    ctx.slots(W, popcll(won));
  } else {
    ctx.atomic_add(a.counters, kNewCount,
                   static_cast<std::uint32_t>(popcll(won)));
  }
  ctx.atomic_add(a.edge_counters, kNextEdges, degree_sum);
}

/// Thread-centric gather over the lanes selected by `mask`: lane l walks its
/// own adjacency list; divergence cost is the longest list in the batch.
template <bool kCas, bool kEnqueue>
void gather_thread_centric(sim::ExecCtx& ctx, const TopDownArgs& a,
                           const LaneChunk& c, std::uint64_t mask,
                           unsigned W) {
  if (mask == 0) return;
  std::uint32_t max_deg = 0;
  for (unsigned l = 0; l < W; ++l) {
    if (mask & (std::uint64_t{1} << l)) {
      max_deg = std::max(max_deg, c.row[l].len());
    }
  }
  for (std::uint32_t j = 0; j < max_deg; ++j) {
    std::array<vid_t, kMaxWave> targets{};
    std::array<vid_t, kMaxWave> par{};
    std::uint64_t act = 0;
    unsigned loaded = 0;
    for (unsigned l = 0; l < W; ++l) {
      if (!(mask & (std::uint64_t{1} << l)) || j >= c.row[l].len()) continue;
      targets[l] = a.adj.at(ctx, c.row[l], j);
      ++loaded;
      if (targets[l] == graph::kTombstone) continue;
      par[l] = c.v[l];
      act |= std::uint64_t{1} << l;
    }
    ctx.slots(W, loaded);
    visit_targets<kCas, kEnqueue>(ctx, a, targets, par, act, W);
  }
}

/// Wavefront-centric gather: the whole wavefront sweeps one vertex's
/// adjacency list in W-wide strides.
template <bool kCas, bool kEnqueue>
void gather_wavefront_centric(sim::ExecCtx& ctx, const TopDownArgs& a,
                              const LaneChunk& c, std::uint64_t mask,
                              unsigned W) {
  for (unsigned owner = 0; owner < W; ++owner) {
    if (!(mask & (std::uint64_t{1} << owner))) continue;
    const vid_t src = c.v[owner];
    for (std::uint32_t chunk = 0; chunk < c.row[owner].len(); chunk += W) {
      std::array<vid_t, kMaxWave> targets{};
      std::array<vid_t, kMaxWave> par{};
      std::uint64_t act = 0;
      const std::uint32_t left = c.row[owner].len() - chunk;
      const unsigned width = static_cast<unsigned>(
          std::min<std::uint32_t>(left, W));
      for (unsigned l = 0; l < width; ++l) {
        targets[l] = a.adj.at(ctx, c.row[owner], chunk + l);
        if (targets[l] == graph::kTombstone) continue;
        par[l] = src;
        act |= std::uint64_t{1} << l;
      }
      ctx.slots(W, width);
      visit_targets<kCas, kEnqueue>(ctx, a, targets, par, act, W);
    }
  }
}

/// The shared expansion kernel body: wavefront-strided over the queue with
/// the configured balancing mode.
template <bool kCas, bool kEnqueue>
void expand_kernel_body(sim::BlockCtx& blk, const TopDownArgs& a,
                        sim::dspan<const vid_t> queue,
                        std::uint32_t queue_size, Balancing balancing,
                        unsigned small_threshold) {
  auto& ctx = blk.ctx();
  blk.wavefronts([&](sim::WavefrontCtx& wf, unsigned) {
    const unsigned W = wf.size();
    const std::uint64_t total_wfs =
        std::uint64_t{blk.grid_blocks()} * blk.wavefronts_per_block();
    for (std::uint64_t base = std::uint64_t{wf.id()} * W; base < queue_size;
         base += total_wfs * W) {
      const LaneChunk c = load_chunk(ctx, a, queue, queue_size, base, W);
      std::uint64_t small = 0, coop = 0;
      switch (balancing) {
        case Balancing::ThreadCentric:
          small = c.valid;
          break;
        case Balancing::WavefrontCentric:
          coop = c.valid;
          break;
        case Balancing::DegreeBinned:
          for (unsigned l = 0; l < W; ++l) {
            const std::uint64_t bit = std::uint64_t{1} << l;
            if (!(c.valid & bit)) continue;
            (c.row[l].len() <= small_threshold ? small : coop) |= bit;
          }
          break;
      }
      gather_thread_centric<kCas, kEnqueue>(ctx, a, c, small, W);
      gather_wavefront_centric<kCas, kEnqueue>(ctx, a, c, coop, W);
    }
  });
}

sim::LaunchConfig expand_launch_config(const sim::Device& dev,
                                       std::uint32_t queue_size,
                                       const XbfsConfig& cfg) {
  sim::LaunchConfig lc;
  lc.block_threads = cfg.block_threads;
  lc.grid_blocks =
      cfg.grid_blocks != 0
          ? cfg.grid_blocks
          : auto_grid_blocks(dev.profile(), std::max<std::uint32_t>(
                                                queue_size, 1),
                             cfg.block_threads);
  return lc;
}

}  // namespace

sim::LaunchResult launch_scanfree_expand(sim::Device& dev, sim::LaunchTarget on,
                                         const TopDownArgs& a,
                                         const XbfsConfig& cfg) {
  const sim::LaunchConfig lc = expand_launch_config(dev, a.queue_size, cfg);
  const Balancing bal = cfg.topdown_balancing;
  const unsigned thr = cfg.small_degree_threshold;
  return dev.launch(on, "xbfs_scanfree_expand", lc, [=](sim::BlockCtx& blk) {
    zero_counter_set(blk, a.next_counters);
    expand_kernel_body<true, true>(blk, a, a.queue, a.queue_size, bal, thr);
  });
}

sim::LaunchResult launch_singlescan_expand(sim::Device& dev, sim::LaunchTarget on,
                                           const TopDownArgs& a,
                                           const XbfsConfig& cfg) {
  const sim::LaunchConfig lc = expand_launch_config(dev, a.queue_size, cfg);
  const Balancing bal = cfg.topdown_balancing;
  const unsigned thr = cfg.small_degree_threshold;
  return dev.launch(on, "xbfs_singlescan_expand", lc, [=](sim::BlockCtx& blk) {
    zero_counter_set(blk, a.next_counters);
    const std::uint32_t size = a.queue_size_on_device
                                   ? blk.ctx().load(a.counters, kCurTail)
                                   : a.queue_size;
    expand_kernel_body<false, false>(blk, a, a.queue, size, bal, thr);
  });
}

sim::LaunchResult launch_singlescan_generate(
    sim::Device& dev, sim::LaunchTarget on, sim::dspan<std::uint32_t> status,
    sim::dspan<graph::vid_t> queue_out, sim::dspan<std::uint32_t> counters,
    std::uint32_t cur_level, const XbfsConfig& cfg,
    const CounterSpans& next_counters) {
  sim::LaunchConfig lc;
  lc.block_threads = cfg.block_threads;
  lc.grid_blocks = cfg.grid_blocks != 0
                       ? cfg.grid_blocks
                       : auto_grid_blocks(dev.profile(), status.size(),
                                          cfg.block_threads);
  const std::uint64_t n = status.size();
  return dev.launch(on, "xbfs_singlescan_generate", lc, [=](sim::BlockCtx&
                                                               blk) {
    zero_counter_set(blk, next_counters);
    auto& ctx = blk.ctx();
    blk.wavefronts([&](sim::WavefrontCtx& wf, unsigned) {
      const unsigned W = wf.size();
      const std::uint64_t total_wfs =
          std::uint64_t{blk.grid_blocks()} * blk.wavefronts_per_block();
      for (std::uint64_t base = std::uint64_t{wf.id()} * W; base < n;
           base += total_wfs * W) {
        std::uint64_t match = 0;
        unsigned active = 0;
        for (unsigned l = 0; l < W; ++l) {
          const std::uint64_t i = base + l;
          if (i >= n) continue;
          ++active;
          if (ctx.load(status, i) == cur_level) {
            match |= std::uint64_t{1} << l;
          }
        }
        ctx.slots(W, active);
        if (match == 0) continue;
        const std::uint32_t qbase = ctx.atomic_add(
            counters, kCurTail, static_cast<std::uint32_t>(popcll(match)));
        for (unsigned l = 0; l < W; ++l) {
          if (!(match & (std::uint64_t{1} << l))) continue;
          ctx.store(queue_out, qbase + mask_rank(match, l),
                    static_cast<vid_t>(base + l));
        }
        ctx.slots(W, popcll(match));
      }
    });
  });
}

sim::LaunchResult launch_classify_bins(sim::Device& dev, sim::LaunchTarget on,
                                       const TopDownArgs& a,
                                       sim::dspan<graph::vid_t> bin_small,
                                       sim::dspan<graph::vid_t> bin_medium,
                                       sim::dspan<graph::vid_t> bin_large,
                                       const XbfsConfig& cfg) {
  const sim::LaunchConfig lc = expand_launch_config(dev, a.queue_size, cfg);
  const std::uint32_t med_min = cfg.medium_min_degree;
  const std::uint32_t large_min = cfg.large_min_degree;
  return dev.launch(on, "xbfs_classify_bins", lc, [=](sim::BlockCtx& blk) {
    zero_counter_set(blk, a.next_counters);
    auto& ctx = blk.ctx();
    blk.wavefronts([&](sim::WavefrontCtx& wf, unsigned) {
      const unsigned W = wf.size();
      const std::uint64_t total_wfs =
          std::uint64_t{blk.grid_blocks()} * blk.wavefronts_per_block();
      for (std::uint64_t base = std::uint64_t{wf.id()} * W;
           base < a.queue_size; base += total_wfs * W) {
        const LaneChunk c = load_chunk(ctx, a, a.queue, a.queue_size, base, W);
        std::uint64_t sm = 0, md = 0, lg = 0;
        for (unsigned l = 0; l < W; ++l) {
          const std::uint64_t bit = std::uint64_t{1} << l;
          if (!(c.valid & bit)) continue;
          if (c.row[l].len() < med_min) {
            sm |= bit;
          } else if (c.row[l].len() < large_min) {
            md |= bit;
          } else {
            lg |= bit;
          }
        }
        const auto scatter = [&](std::uint64_t mask,
                                 sim::dspan<graph::vid_t> bin,
                                 std::size_t tail_slot) {
          if (mask == 0) return;
          const std::uint32_t qbase = ctx.atomic_add(
              a.counters, tail_slot,
              static_cast<std::uint32_t>(popcll(mask)));
          for (unsigned l = 0; l < W; ++l) {
            if (!(mask & (std::uint64_t{1} << l))) continue;
            ctx.store(bin, qbase + mask_rank(mask, l), c.v[l]);
          }
          ctx.slots(W, popcll(mask));
        };
        scatter(sm, bin_small, kBinSmall);
        scatter(md, bin_medium, kBinMedium);
        scatter(lg, bin_large, kBinLarge);
      }
    });
  });
}

sim::LaunchResult launch_scanfree_expand_bin(sim::Device& dev, sim::LaunchTarget on,
                                             const TopDownArgs& a,
                                             sim::dspan<const graph::vid_t> bin,
                                             std::uint32_t bin_size,
                                             Balancing balancing,
                                             const char* kernel_name,
                                             const XbfsConfig& cfg) {
  const sim::LaunchConfig lc = expand_launch_config(dev, bin_size, cfg);
  const unsigned thr = cfg.small_degree_threshold;
  return dev.launch(on, kernel_name, lc, [=](sim::BlockCtx& blk) {
    expand_kernel_body<true, true>(blk, a, bin, bin_size, balancing, thr);
  });
}

}  // namespace xbfs::core
