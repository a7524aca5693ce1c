#include "algos/cc_engine.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/status.h"

namespace xbfs::algos {

using graph::vid_t;

LpCcEngine::LpCcEngine(sim::Device& dev, const graph::DeviceCsr& g)
    : dev_(dev), g_(g) {
  label_ = dev.alloc<vid_t>(g.n, "cc.label");
  counters_ = dev.alloc<std::uint32_t>(1, "cc.counters");
}

core::AlgoResult LpCcEngine::solve(const core::AlgoQuery&) {
  sim::Stream& s = dev_.stream(0);
  const double t0_us = dev_.now_us();
  core::AlgoResult result;
  result.payload.kind = core::AlgoKind::Cc;

  auto label = label_.span();
  auto counters = counters_.span();
  const graph::DeviceAdjacency adj = g_.adjacency();
  const std::uint64_t n = g_.n;
  const std::uint64_t m = std::max<std::uint64_t>(1, g_.m);

  const sim::LaunchConfig lc = core::full_width_launch(dev_.profile(), n);
  const sim::LaunchConfig rc{.grid_blocks = 1, .block_threads = 64};

  dev_.launch(s, "cc_init", lc, [=](sim::BlockCtx& blk) {
    auto& ctx = blk.ctx();
    blk.grid_stride(n, [&](std::uint64_t v) {
      ctx.store(label, v, static_cast<vid_t>(v));
    });
  });

  std::uint64_t hooks = 0;
  std::uint32_t rounds = 0;
  for (;; ++rounds) {
    dev_.profiler().set_context(static_cast<int>(rounds), "lp-cc");
    const double round_t0 = dev_.now_us();
    dev_.launch(s, "cc_reset", rc, [=](sim::BlockCtx& blk) {
      auto& ctx = blk.ctx();
      blk.threads([&](unsigned t) {
        if (t == 0) ctx.store(counters, 0, 0u);
      });
    });

    // Hook: every edge pulls both endpoints toward the smaller label.  The
    // adjacency is symmetric, so scattering from each vertex covers each
    // undirected edge in both directions.  A dynamic mirror's deleted base
    // entries hold kTombstone and are skipped before any label access.
    dev_.launch(s, "cc_hook", lc, [=](sim::BlockCtx& blk) {
      auto& ctx = blk.ctx();
      // Neighbor labels are read while other lanes atomicMin them; labels
      // only decrease, so a stale (larger) read can only under-hook — the
      // improved counter stays nonzero and the next round retries.
      sim::racy_ok allow(ctx,
                         "lp-cc hook: concurrent reads of monotonically "
                         "decreasing labels; fixpoint detected by the "
                         "improvement counter");
      blk.grid_stride(n, [&](std::uint64_t v) {
        const vid_t lv = ctx.atomic_load(label, v);
        const graph::DeviceAdjacency::Row row =
            adj.row(ctx, static_cast<vid_t>(v));
        const std::uint64_t len = row.len();
        std::uint32_t improved = 0;
        for (std::uint32_t j = 0; j < row.len(); ++j) {
          const vid_t w = adj.at(ctx, row, j);
          if (w == graph::kTombstone) continue;
          const vid_t old = ctx.atomic_min(label, w, lv);
          if (lv < old) ++improved;
        }
        ctx.slots(2 * len + 1, 2 * len + 1);
        if (improved > 0) ctx.atomic_add(counters, 0, improved);
      });
    });

    // Shortcut: compress label chains (v -> label[v] -> label[label[v]]
    // -> ...) to their root.  Chains are strictly decreasing vertex ids,
    // so the walk terminates; a concurrent improvement just means another
    // hook round follows.
    dev_.launch(s, "cc_jump", lc, [=](sim::BlockCtx& blk) {
      auto& ctx = blk.ctx();
      sim::racy_ok allow(ctx,
                         "lp-cc jump: pointer jumping over labels other "
                         "lanes are compressing; labels only decrease");
      blk.grid_stride(n, [&](std::uint64_t v) {
        vid_t l = ctx.atomic_load(label, v);
        unsigned steps = 0;
        for (;;) {
          const vid_t parent = ctx.atomic_load(label, l);
          if (parent == l) break;
          l = parent;
          ++steps;
        }
        if (steps > 0) ctx.atomic_min(label, v, l);
        ctx.slots(2 * (steps + 1), 2 * (steps + 1));
      });
    });

    s.synchronize();
    dev_.memcpy_d2h(s, counters_);
    const std::uint32_t improved = counters_.h_read(0);
    hooks += improved;

    core::LevelStats st;
    st.level = rounds;
    st.strategy = core::Strategy::SingleScan;  // full-vertex scans per round
    st.frontier_count = improved;
    st.frontier_edges = m;
    st.ratio = 1.0;
    st.time_ms = (dev_.now_us() - round_t0) / 1000.0;
    st.kernels = 3;
    result.level_stats.push_back(st);
    if (improved == 0) break;
  }

  dev_.memcpy_d2h(s, label_);
  s.synchronize();
  const vid_t* label_host = std::as_const(label_).host_data();
  result.payload.components = std::make_shared<const std::vector<vid_t>>(
      label_host, label_host + n);
  result.payload.depth = rounds + 1;
  result.total_ms = (dev_.now_us() - t0_us) / 1000.0;
  result.work_items = hooks;
  return result;
}

}  // namespace xbfs::algos
