#include "algos/kcore_engine.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/status.h"

namespace xbfs::algos {

using graph::eid_t;
using graph::vid_t;

KCorePullEngine::KCorePullEngine(sim::Device& dev, const graph::DeviceCsr& g)
    : dev_(dev), g_(g) {
  deg_ = dev.alloc<std::uint32_t>(g.n, "kcore.deg");
  alive_ = dev.alloc<std::uint8_t>(g.n, "kcore.alive");
  just_died_ = dev.alloc<std::uint8_t>(g.n, "kcore.just_died");
  core_ = dev.alloc<std::uint32_t>(g.n, "kcore.core");
  counters_ = dev.alloc<std::uint32_t>(3, "kcore.counters");
}

core::AlgoResult KCorePullEngine::solve(const core::AlgoQuery& q) {
  sim::Stream& s = dev_.stream(0);
  const double t0_us = dev_.now_us();
  core::AlgoResult result;
  result.payload.kind = core::AlgoKind::KCore;

  const std::uint32_t want_k = q.params.k;
  auto deg = deg_.span();
  auto alive = alive_.span();
  auto just_died = just_died_.span();
  auto core = core_.span();
  auto counters = counters_.span();
  auto offsets = g_.offsets_span();
  auto cols = g_.cols_span();
  const std::uint64_t n = g_.n;
  const std::uint64_t m = std::max<std::uint64_t>(1, g_.m);

  const sim::LaunchConfig lc = core::full_width_launch(dev_.profile(), n);
  const sim::LaunchConfig rc{.grid_blocks = 1, .block_threads = 64};

  // katana DegreeCounting + InitializeGraph: seed the current degrees and
  // the liveness flags.
  dev_.launch(s, "kcore_init", lc, [=](sim::BlockCtx& blk) {
    auto& ctx = blk.ctx();
    blk.grid_stride(n, [&](std::uint64_t v) {
      const eid_t d = ctx.load(offsets, v + 1) - ctx.load(offsets, v);
      ctx.store(deg, v, static_cast<std::uint32_t>(d));
      ctx.store(alive, v, std::uint8_t{1});
      ctx.store(just_died, v, std::uint8_t{0});
      ctx.store(core, v, 0u);
    });
  });

  std::uint64_t trims = 0;
  std::uint32_t rounds = 0;

  // One peel at threshold kk: mark sub-threshold vertices dead, pull-trim
  // survivor degrees, repeat until the kk-core is stable.  Returns the
  // number of vertices removed.
  const auto peel = [&](std::uint32_t kk, core::LevelStats& st) {
    std::uint64_t removed_total = 0;
    for (;;) {
      dev_.launch(s, "kcore_reset", rc, [=](sim::BlockCtx& blk) {
        auto& ctx = blk.ctx();
        blk.threads([&](unsigned t) {
          if (t < 3) ctx.store(counters, t, 0u);
        });
      });
      // katana LiveUpdate: flag this sub-round's casualties.
      dev_.launch(s, "kcore_mark", lc, [=](sim::BlockCtx& blk) {
        auto& ctx = blk.ctx();
        blk.grid_stride(n, [&](std::uint64_t v) {
          if (!ctx.load(alive, v)) {
            ctx.slots(1, 1);
            return;
          }
          if (ctx.load(deg, v) >= kk) {
            ctx.slots(2, 2);
            return;
          }
          ctx.store(alive, v, std::uint8_t{0});
          ctx.store(just_died, v, std::uint8_t{1});
          ctx.store(core, v, kk - 1);
          ctx.atomic_add(counters, 0, 1u);
          ctx.slots(6, 6);
        });
      });
      s.synchronize();
      dev_.memcpy_d2h(s, counters_);
      const std::uint32_t removed = counters_.h_read(0);
      st.kernels += 2;
      if (removed == 0) break;
      removed_total += removed;

      // katana KCore pull: every survivor gathers its neighbors' death
      // flags and trims its current degree.  Flags were written by the
      // mark kernel and are cleared only after this kernel — strictly
      // level-synchronous, no races.
      dev_.launch(s, "kcore_pull", lc, [=](sim::BlockCtx& blk) {
        auto& ctx = blk.ctx();
        blk.grid_stride(n, [&](std::uint64_t v) {
          if (!ctx.load(alive, v)) {
            ctx.slots(1, 1);
            return;
          }
          const eid_t b = ctx.load(offsets, v);
          const eid_t e = ctx.load(offsets, v + 1);
          std::uint32_t trim = 0;
          for (eid_t j = b; j < e; ++j) {
            const vid_t w = ctx.load(cols, j);
            if (ctx.load(just_died, w)) ++trim;
          }
          ctx.slots(2 * (e - b) + 1, 2 * (e - b) + 1);
          if (trim > 0) {
            ctx.store(deg, v, ctx.load(deg, v) - trim);
            ctx.atomic_add(counters, 2, trim);
          }
        });
      });
      dev_.launch(s, "kcore_clear", lc, [=](sim::BlockCtx& blk) {
        auto& ctx = blk.ctx();
        blk.grid_stride(n, [&](std::uint64_t v) {
          if (ctx.load(just_died, v)) ctx.store(just_died, v, std::uint8_t{0});
          ctx.slots(2, 2);
        });
      });
      s.synchronize();
      dev_.memcpy_d2h(s, counters_);
      trims += counters_.h_read(2);
      st.kernels += 2;
      st.frontier_count += removed;
    }
    return removed_total;
  };

  // Survivor census; also stamps `stamp` into core[] for the live set.
  const auto census = [&](std::uint32_t stamp) {
    dev_.launch(s, "kcore_census", lc, [=](sim::BlockCtx& blk) {
      auto& ctx = blk.ctx();
      blk.grid_stride(n, [&](std::uint64_t v) {
        if (!ctx.load(alive, v)) {
          ctx.slots(1, 1);
          return;
        }
        ctx.store(core, v, stamp);
        ctx.atomic_add(counters, 1, 1u);
        ctx.slots(3, 3);
      });
    });
    s.synchronize();
    dev_.memcpy_d2h(s, counters_);
    return counters_.h_read(1);
  };

  if (want_k > 0) {
    // Membership: one peel at k, then 0/1-stamp the survivors.
    dev_.profiler().set_context(0, "kcore-pull");
    core::LevelStats st;
    st.level = 0;
    st.strategy = core::Strategy::BottomUp;
    st.frontier_edges = m;
    const double round_t0 = dev_.now_us();
    peel(want_k, st);
    // Reset core[] so dead vertices report 0 and survivors 1.
    dev_.launch(s, "kcore_member", lc, [=](sim::BlockCtx& blk) {
      auto& ctx = blk.ctx();
      blk.grid_stride(n, [&](std::uint64_t v) {
        ctx.store(core, v, ctx.load(alive, v) ? 1u : 0u);
        ctx.slots(2, 2);
      });
    });
    s.synchronize();
    st.kernels += 1;
    st.time_ms = (dev_.now_us() - round_t0) / 1000.0;
    result.level_stats.push_back(st);
    rounds = 1;
  } else {
    // Full decomposition: peel at k = 1, 2, ... until nothing survives; a
    // vertex's coreness is the last threshold it survived (stamped by the
    // census) or k-1 at removal (stamped by the mark kernel).
    for (std::uint32_t kk = 1;; ++kk) {
      dev_.profiler().set_context(static_cast<int>(kk), "kcore-pull");
      core::LevelStats st;
      st.level = kk;
      st.strategy = core::Strategy::BottomUp;
      st.frontier_edges = m;
      const double round_t0 = dev_.now_us();
      peel(kk, st);
      const std::uint32_t live = census(kk);
      st.kernels += 1;
      st.time_ms = (dev_.now_us() - round_t0) / 1000.0;
      result.level_stats.push_back(st);
      ++rounds;
      if (live == 0) break;
    }
  }

  dev_.memcpy_d2h(s, core_);
  s.synchronize();
  const std::uint32_t* core_host = std::as_const(core_).host_data();
  result.payload.cores = std::make_shared<const std::vector<std::uint32_t>>(
      core_host, core_host + n);
  result.payload.depth = rounds;
  result.total_ms = (dev_.now_us() - t0_us) / 1000.0;
  result.work_items = trims;
  return result;
}

}  // namespace xbfs::algos
