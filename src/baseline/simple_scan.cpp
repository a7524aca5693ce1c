#include "baseline/simple_scan.h"

#include <algorithm>
#include <utility>

#include "core/report.h"
#include "core/status.h"

namespace xbfs::baseline {

using core::kUnvisited;
using graph::eid_t;
using graph::vid_t;

SimpleScanBfs::SimpleScanBfs(sim::Device& dev, const graph::DeviceCsr& g)
    : dev_(dev), g_(g) {
  status_ = dev.alloc<std::uint32_t>(g.n, "scan.status");
  counters_ = dev.alloc<std::uint32_t>(1, "scan.counters");
}

core::BfsResult SimpleScanBfs::run(vid_t src) {
  sim::Stream& s = dev_.stream(0);
  const double t0_us = dev_.now_us();
  const std::size_t prof_start = dev_.profiler().records().size();
  core::BfsResult result;

  core::launch_init_status(dev_, s, status_.span(), core::kBlockThreads);
  {
    auto status = status_.span();
    sim::LaunchConfig lc{.grid_blocks = 1, .block_threads = 64};
    dev_.launch(s, "scanbfs_seed", lc, [=](sim::BlockCtx& blk) {
      auto& ctx = blk.ctx();
      blk.threads([&](unsigned t) {
        if (t == 0) ctx.store(status, src, std::uint32_t{0});
      });
    });
  }

  auto offsets = g_.offsets_span();
  auto cols = g_.cols_span();
  auto status = status_.span();
  auto counters = counters_.span();
  const std::uint64_t n = g_.n;

  for (std::uint32_t level = 0;; ++level) {
    dev_.profiler().set_context(static_cast<int>(level), "simple-scan");
    const double level_t0 = dev_.now_us();
    sim::LaunchConfig rc{.grid_blocks = 1, .block_threads = 64};
    dev_.launch(s, "scanbfs_reset", rc, [=](sim::BlockCtx& blk) {
      auto& ctx = blk.ctx();
      blk.threads([&](unsigned t) {
        if (t == 0) ctx.store(counters, 0, std::uint32_t{0});
      });
    });

    const std::uint32_t next_level = level + 1;
    const sim::LaunchConfig lc = core::full_width_launch(dev_.profile(), n);
    dev_.launch(s, "scanbfs_scan_expand", lc, [=](sim::BlockCtx& blk) {
      auto& ctx = blk.ctx();
      // The whole scan races on status by design: pre-check loads vs the
      // plain next_level stores of other blocks.  Every interleaving either
      // stores the same value or defers the vertex to a rescan.
      sim::racy_ok allow(ctx,
                         "simple-scan: unsynchronized status pre-check and "
                         "same-value next_level store");
      blk.grid_stride(n, [&](std::uint64_t v) {
        if (ctx.load(status, v) != level) return;
        const eid_t b = ctx.load(offsets, v);
        const eid_t e = ctx.load(offsets, v + 1);
        std::uint32_t found = 0;
        for (eid_t j = b; j < e; ++j) {
          const vid_t w = ctx.load(cols, j);
          if (ctx.load(status, w) == kUnvisited) {
            ctx.store(status, w, next_level);  // benign same-value race
            ++found;
          }
        }
        ctx.slots(e - b, e - b);
        if (found > 0) ctx.atomic_add(counters, 0, found);
      });
    });

    s.synchronize();
    dev_.memcpy_d2h(s, counters_);
    const std::uint32_t newly = counters_.h_read(0);

    core::LevelStats st;
    st.level = level;
    st.strategy = core::Strategy::SingleScan;  // closest telemetry bucket
    st.time_ms = (dev_.now_us() - level_t0) / 1000.0;
    st.kernels = 2;
    result.level_stats.push_back(st);
    if (newly == 0) break;
  }

  dev_.memcpy_d2h(s, status_);
  result.levels.resize(n);
  const std::uint32_t* status_host = std::as_const(status_).host_data();
  const eid_t* offsets_host = g_.offsets.host_data();
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
  core::record_run(result, "simple_scan", g_.n, g_.m,
                   static_cast<std::int64_t>(src), nullptr,
                   &dev_.profiler(), prof_start);
  return result;
}

}  // namespace xbfs::baseline
