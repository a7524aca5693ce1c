#include "baseline/async_sssp.h"

#include <algorithm>
#include <utility>

#include "core/report.h"
#include "core/status.h"

namespace xbfs::baseline {

using core::kUnvisited;
using graph::eid_t;
using graph::vid_t;

AsyncSsspBfs::AsyncSsspBfs(sim::Device& dev, const graph::DeviceCsr& g)
    : dev_(dev), g_(g) {
  dist_ = dev.alloc<std::uint32_t>(g.n, "sssp.dist");
  dirty_ = dev.alloc<std::uint8_t>(g.n, "sssp.dirty");
  counters_ = dev.alloc<std::uint32_t>(2, "sssp.counters");
}

core::BfsResult AsyncSsspBfs::run(vid_t src) {
  sim::Stream& s = dev_.stream(0);
  const double t0_us = dev_.now_us();
  const std::size_t prof_start = dev_.profiler().records().size();
  core::BfsResult result;

  auto dist = dist_.span();
  auto dirty = dirty_.span();
  auto counters = counters_.span();
  auto offsets = g_.offsets_span();
  auto cols = g_.cols_span();
  const std::uint64_t n = g_.n;

  const sim::LaunchConfig lc = core::full_width_launch(dev_.profile(), n);
  dev_.launch(s, "sssp_init", lc, [=](sim::BlockCtx& blk) {
    auto& ctx = blk.ctx();
    blk.grid_stride(n, [&](std::uint64_t v) {
      ctx.store(dist, v, v == src ? 0u : kUnvisited);
      ctx.store(dirty, v, v == src ? std::uint8_t{1} : std::uint8_t{0});
    });
  });

  std::uint64_t relaxations = 0;
  std::uint32_t rounds = 0;
  for (;; ++rounds) {
    dev_.profiler().set_context(static_cast<int>(rounds), "async-sssp");
    const double round_t0 = dev_.now_us();
    sim::LaunchConfig rc{.grid_blocks = 1, .block_threads = 64};
    dev_.launch(s, "sssp_reset", rc, [=](sim::BlockCtx& blk) {
      auto& ctx = blk.ctx();
      blk.threads([&](unsigned t) {
        if (t < 2) ctx.store(counters, t, std::uint32_t{0});
      });
    });

    // Asynchronous relaxation sweep: every vertex that improved last round
    // pushes its distance to all neighbors via atomicMin.  No ordering, no
    // frontier queue — and therefore repeated improvement cascades.
    dev_.launch(s, "sssp_relax", lc, [=](sim::BlockCtx& blk) {
      auto& ctx = blk.ctx();
      // The dirty flags are deliberately unsynchronized (distances are the
      // atomics): a lost set re-marks next round via atomicMin's return, a
      // lost clear only re-relaxes an already-settled vertex.
      sim::racy_ok allow(ctx,
                         "async-sssp: unsynchronized dirty-flag set/clear; "
                         "convergence is driven by atomicMin on dist");
      blk.grid_stride(n, [&](std::uint64_t v) {
        if (!ctx.load(dirty, v)) {
          ctx.slots(1, 1);
          return;
        }
        ctx.store(dirty, v, std::uint8_t{0});
        const std::uint32_t dv = ctx.atomic_load(dist, v);
        if (dv == kUnvisited) return;
        const eid_t b = ctx.load(offsets, v);
        const eid_t e = ctx.load(offsets, v + 1);
        std::uint32_t relaxed = 0;
        for (eid_t j = b; j < e; ++j) {
          const vid_t w = ctx.load(cols, j);
          const std::uint32_t old = ctx.atomic_min(dist, w, dv + 1);
          ++relaxed;
          if (dv + 1 < old) {
            ctx.store(dirty, w, std::uint8_t{1});
            ctx.atomic_add(counters, 0, std::uint32_t{1});
          }
        }
        ctx.slots(2 * (e - b) + 2, 2 * (e - b) + 2);
        if (relaxed > 0) ctx.atomic_add(counters, 1, relaxed);
      });
    });
    s.synchronize();
    dev_.memcpy_d2h(s, counters_);
    relaxations += counters_.h_read(1);

    core::LevelStats st;
    st.level = rounds;
    st.strategy = core::Strategy::ScanFree;  // closest telemetry bucket
    st.time_ms = (dev_.now_us() - round_t0) / 1000.0;
    st.kernels = 2;
    result.level_stats.push_back(st);
    if (counters_.h_read(0) == 0) break;
  }
  last_relaxations_ = relaxations;

  dev_.memcpy_d2h(s, dist_);
  result.levels.resize(n);
  const std::uint32_t* dist_host = std::as_const(dist_).host_data();
  const eid_t* offsets_host = g_.offsets.host_data();
  for (std::uint64_t v = 0; v < n; ++v) {
    result.levels[v] = dist_host[v] == kUnvisited
                           ? std::int32_t{-1}
                           : static_cast<std::int32_t>(dist_host[v]);
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
  core::record_run(result, "async_sssp", g_.n, g_.m,
                   static_cast<std::int64_t>(src), nullptr,
                   &dev_.profiler(), prof_start);
  return result;
}

}  // namespace xbfs::baseline
