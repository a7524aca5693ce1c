#include "baseline/gunrock_like.h"

#include <algorithm>
#include <array>
#include <utility>

#include "core/report.h"
#include "core/status.h"
#include "hipsim/intrinsics.h"

namespace xbfs::baseline {

using core::kUnvisited;
using graph::eid_t;
using graph::vid_t;
using sim::mask_rank;
using sim::popcll;

namespace {
constexpr unsigned kMaxWave = 64;
constexpr std::size_t kEdgeTail = 0;
constexpr std::size_t kVertexTail = 1;
}  // namespace

GunrockLikeBfs::GunrockLikeBfs(sim::Device& dev, const graph::DeviceCsr& g)
    : dev_(dev), g_(g) {
  status_ = dev.alloc<std::uint32_t>(g.n, "gunrock.status");
  vertex_frontier_a_ = dev.alloc<vid_t>(g.n, "gunrock.frontier_a");
  // Duplicates can push the compacted frontier past |V|; Gunrock sizes
  // these O(|E|) — the space cost the paper criticizes.
  vertex_frontier_b_ = dev.alloc<vid_t>(std::max<std::uint64_t>(g.m, g.n),
                                        "gunrock.frontier_b");
  edge_frontier_ = dev.alloc<vid_t>(std::max<std::uint64_t>(g.m, g.n),
                                    "gunrock.edge_frontier");
  counters_ = dev.alloc<std::uint32_t>(2, "gunrock.counters");
}

core::BfsResult GunrockLikeBfs::run(vid_t src) {
  sim::Stream& s = dev_.stream(0);
  const double t0_us = dev_.now_us();
  const std::size_t prof_start = dev_.profiler().records().size();
  core::BfsResult result;

  core::launch_init_status(dev_, s, status_.span(), core::kBlockThreads);

  // Seed the frontier.
  {
    auto status = status_.span();
    auto frontier = vertex_frontier_a_.span();
    sim::LaunchConfig lc{.grid_blocks = 1, .block_threads = 64};
    dev_.launch(s, "gunrock_enqueue_source", lc, [=](sim::BlockCtx& blk) {
      auto& ctx = blk.ctx();
      blk.threads([&](unsigned t) {
        if (t != 0) return;
        ctx.store(status, src, std::uint32_t{0});
        ctx.store(frontier, 0, src);
      });
    });
  }

  auto offsets = g_.offsets_span();
  auto cols = g_.cols_span();
  auto status = status_.span();
  auto counters = counters_.span();
  const eid_t* offsets_host = g_.offsets.host_data();

  std::uint32_t frontier_size = 1;
  bool use_a = true;
  for (std::uint32_t level = 0; frontier_size > 0; ++level) {
    dev_.profiler().set_context(static_cast<int>(level), "gunrock-like");
    const double level_t0 = dev_.now_us();

    // Reset tails.
    sim::LaunchConfig rc{.grid_blocks = 1, .block_threads = 64};
    dev_.launch(s, "gunrock_reset", rc, [=](sim::BlockCtx& blk) {
      auto& ctx = blk.ctx();
      blk.threads([&](unsigned t) {
        if (t < 2) ctx.store(counters, t, std::uint32_t{0});
      });
    });

    auto vertex_in =
        use_a ? vertex_frontier_a_.cspan() : vertex_frontier_b_.cspan();
    auto vertex_out =
        use_a ? vertex_frontier_b_.span() : vertex_frontier_a_.span();
    auto edge_q = edge_frontier_.span();
    auto edge_qc = edge_frontier_.cspan();

    // --- advance: gather all neighbors of the frontier into the edge
    // frontier; a cheap visited pre-check drops some but races leave dupes.
    const std::uint32_t fsize = frontier_size;
    const sim::LaunchConfig ac = core::full_width_launch(dev_.profile(), fsize);
    dev_.launch(s, "gunrock_advance", ac, [=](sim::BlockCtx& blk) {
      auto& ctx = blk.ctx();
      blk.wavefronts([&](sim::WavefrontCtx& wf, unsigned) {
        const unsigned W = wf.size();
        const std::uint64_t total_wfs =
            std::uint64_t{blk.grid_blocks()} * blk.wavefronts_per_block();
        for (std::uint64_t base = std::uint64_t{wf.id()} * W; base < fsize;
             base += total_wfs * W) {
          for (unsigned l = 0; l < W; ++l) {
            const std::uint64_t i = base + l;
            if (i >= fsize) continue;
            const vid_t v = ctx.load(vertex_in, i);
            const eid_t b = ctx.load(offsets, v);
            const eid_t e = ctx.load(offsets, v + 1);
            for (eid_t j = b; j < e; ++j) {
              const vid_t w = ctx.load(cols, j);
              if (ctx.load(status, w) != kUnvisited) continue;
              const std::uint32_t slot =
                  ctx.atomic_add(counters, kEdgeTail, std::uint32_t{1});
              ctx.store(edge_q, slot, w);
            }
          }
          ctx.slots(W, W);
        }
      });
    });

    // Host reads the edge-frontier length for the filter launch (partial
    // copy: one of the two counter words).
    dev_.memcpy_d2h(s, sizeof(std::uint32_t));
    counters_.mark_host_synced();
    const std::uint32_t edge_count = counters_.h_read(kEdgeTail);

    // --- filter: claim unvisited entries, compact into the vertex frontier.
    const std::uint32_t next_level = level + 1;
    const sim::LaunchConfig fc =
        core::full_width_launch(dev_.profile(), edge_count);
    dev_.launch(s, "gunrock_filter", fc, [=](sim::BlockCtx& blk) {
      auto& ctx = blk.ctx();
      blk.wavefronts([&](sim::WavefrontCtx& wf, unsigned) {
        const unsigned W = wf.size();
        const std::uint64_t total_wfs =
            std::uint64_t{blk.grid_blocks()} * blk.wavefronts_per_block();
        for (std::uint64_t base = std::uint64_t{wf.id()} * W;
             base < edge_count; base += total_wfs * W) {
          std::array<vid_t, kMaxWave> w{};
          std::uint64_t keep = 0;
          unsigned active = 0;
          for (unsigned l = 0; l < W; ++l) {
            const std::uint64_t i = base + l;
            if (i >= edge_count) continue;
            ++active;
            w[l] = ctx.load(edge_qc, i);
            // Gunrock's filter is not atomic: concurrent duplicates of the
            // same vertex can all pass.  The check-then-store races with
            // other blocks filtering the same vertex; losers only emit a
            // duplicate frontier entry with the same level.
            sim::racy_ok allow(ctx,
                               "gunrock filter: non-atomic claim admits "
                               "duplicates, all storing the same level");
            if (ctx.load(status, w[l]) == kUnvisited) {
              ctx.store(status, w[l], next_level);
              keep |= std::uint64_t{1} << l;
            }
          }
          ctx.slots(W, active);
          if (keep == 0) continue;
          const std::uint32_t qbase = ctx.atomic_add(
              counters, kVertexTail,
              static_cast<std::uint32_t>(popcll(keep)));
          for (unsigned l = 0; l < W; ++l) {
            if (!(keep & (std::uint64_t{1} << l))) continue;
            ctx.store(vertex_out, qbase + mask_rank(keep, l), w[l]);
          }
          ctx.slots(W, popcll(keep));
        }
      });
    });

    s.synchronize();
    dev_.memcpy_d2h(s, counters_);
    frontier_size = counters_.h_read(kVertexTail);
    use_a = !use_a;

    core::LevelStats st;
    st.level = level;
    st.strategy = core::Strategy::ScanFree;  // closest telemetry bucket
    st.frontier_count = fsize;
    st.time_ms = (dev_.now_us() - level_t0) / 1000.0;
    st.kernels = 3;
    result.level_stats.push_back(st);
  }

  // Read back levels.
  const std::uint64_t n = g_.n;
  dev_.memcpy_d2h(s, status_);
  result.levels.resize(n);
  const std::uint32_t* status_host = std::as_const(status_).host_data();
  for (std::uint64_t v = 0; v < n; ++v) {
    result.levels[v] = status_host[v] == kUnvisited
                           ? std::int32_t{-1}
                           : static_cast<std::int32_t>(status_host[v]);
  }
  s.synchronize();

  result.depth = static_cast<std::uint32_t>(result.level_stats.size());
  result.total_ms = (dev_.now_us() - t0_us) / 1000.0;
  std::uint64_t reached_degree = 0;
  for (std::uint64_t v = 0; v < n; ++v) {
    if (result.levels[v] >= 0) {
      reached_degree += offsets_host[v + 1] - offsets_host[v];
    }
  }
  result.edges_traversed = reached_degree / 2;
  result.gteps = core::safe_gteps(result.edges_traversed, result.total_ms);
  core::record_run(result, "gunrock_like", g_.n, g_.m,
                   static_cast<std::int64_t>(src), nullptr,
                   &dev_.profiler(), prof_start);
  return result;
}

}  // namespace xbfs::baseline
