#include "baseline/hier_queue.h"

#include <algorithm>
#include <utility>

#include "core/report.h"
#include "core/status.h"

namespace xbfs::baseline {

using core::kUnvisited;
using graph::eid_t;
using graph::vid_t;

HierQueueBfs::HierQueueBfs(sim::Device& dev, const graph::DeviceCsr& g,
                           HierQueueConfig cfg)
    : dev_(dev), g_(g), cfg_(cfg) {
  status_ = dev.alloc<std::uint32_t>(g.n, "hq.status");
  frontier_a_ = dev.alloc<vid_t>(g.n, "hq.frontier_a");
  frontier_b_ = dev.alloc<vid_t>(g.n, "hq.frontier_b");
  counters_ = dev.alloc<std::uint32_t>(1, "hq.counters");
}

core::BfsResult HierQueueBfs::run(vid_t src) {
  sim::Stream& s = dev_.stream(0);
  const double t0_us = dev_.now_us();
  const std::size_t prof_start = dev_.profiler().records().size();
  core::BfsResult result;

  auto status = status_.span();
  auto counters = counters_.span();
  auto offsets = g_.offsets_span();
  auto cols = g_.cols_span();
  const eid_t* offsets_host = g_.offsets.host_data();

  core::launch_init_status(dev_, s, status, core::kBlockThreads);
  {
    auto frontier = frontier_a_.span();
    sim::LaunchConfig lc{.grid_blocks = 1, .block_threads = 64};
    dev_.launch(s, "hq_seed", lc, [=](sim::BlockCtx& blk) {
      auto& ctx = blk.ctx();
      blk.threads([&](unsigned t) {
        if (t != 0) return;
        ctx.store(status, src, std::uint32_t{0});
        ctx.store(frontier, 0, src);
      });
    });
  }

  const unsigned cap = cfg_.block_queue_capacity;
  std::uint32_t frontier_size = 1;
  bool use_a = true;
  for (std::uint32_t level = 0; frontier_size > 0; ++level) {
    dev_.profiler().set_context(static_cast<int>(level), "hier-queue");
    const double level_t0 = dev_.now_us();

    sim::LaunchConfig rc{.grid_blocks = 1, .block_threads = 64};
    dev_.launch(s, "hq_reset", rc, [=](sim::BlockCtx& blk) {
      auto& ctx = blk.ctx();
      blk.threads([&](unsigned t) {
        if (t == 0) ctx.store(counters, 0, std::uint32_t{0});
      });
    });

    auto vin = use_a ? frontier_a_.cspan() : frontier_b_.cspan();
    auto vout = use_a ? frontier_b_.span() : frontier_a_.span();
    const std::uint32_t fsize = frontier_size;
    const std::uint32_t next_level = level + 1;

    const sim::LaunchConfig ec = core::full_width_launch(dev_.profile(), fsize);
    dev_.launch(s, "hq_expand", ec, [=](sim::BlockCtx& blk) {
      auto& ctx = blk.ctx();
      // Block-local queue in LDS; overflow goes straight to the global
      // queue with a per-vertex atomic (the space/pressure pathology).
      vid_t* block_q = blk.shmem().alloc<vid_t>(cap);
      std::uint32_t block_count = 0;

      blk.grid_stride(fsize, [&](std::uint64_t i) {
        const vid_t v = ctx.load(vin, i);
        const eid_t b = ctx.load(offsets, v);
        const eid_t e = ctx.load(offsets, v + 1);
        for (eid_t j = b; j < e; ++j) {
          const vid_t w = ctx.load(cols, j);
          std::uint32_t seen;
          {
            // Cheap pre-check races with other blocks' CAS claims; a stale
            // read only falls through to the CAS, which decides atomically.
            sim::racy_ok allow(ctx,
                               "hier-queue: plain status pre-check before "
                               "the authoritative CAS claim");
            seen = ctx.load(status, w);
          }
          if (seen != kUnvisited) continue;
          const std::uint32_t old =
              ctx.atomic_cas(status, w, kUnvisited, next_level);
          if (old != kUnvisited) continue;
          if (block_count < cap) {
            block_q[block_count++] = w;  // LDS append (not global traffic)
          } else {
            const std::uint32_t slot =
                ctx.atomic_add(counters, 0, std::uint32_t{1});
            ctx.store(vout, slot, w);
          }
        }
        ctx.slots(2 * (e - b) + 1, 2 * (e - b) + 1);
      });

      // Bulk flush of the block queue: one tail atomic, then a burst of
      // strided stores (blocks flush to disjoint, scattered regions).
      if (block_count > 0) {
        const std::uint32_t base =
            ctx.atomic_add(counters, 0, block_count);
        for (std::uint32_t i = 0; i < block_count; ++i) {
          ctx.store(vout, base + i, block_q[i]);
        }
        ctx.slots(block_count, block_count);
      }
    });

    s.synchronize();
    dev_.memcpy_d2h(s, counters_);
    frontier_size = counters_.h_read(0);
    use_a = !use_a;

    core::LevelStats st;
    st.level = level;
    st.strategy = core::Strategy::ScanFree;  // closest telemetry bucket
    st.frontier_count = fsize;
    st.time_ms = (dev_.now_us() - level_t0) / 1000.0;
    st.kernels = 2;
    result.level_stats.push_back(st);
  }

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
  core::record_run(result, "hier_queue", g_.n, g_.m,
                   static_cast<std::int64_t>(src), nullptr,
                   &dev_.profiler(), prof_start);
  return result;
}

}  // namespace xbfs::baseline
