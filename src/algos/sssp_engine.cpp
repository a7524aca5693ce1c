#include "algos/sssp_engine.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/status.h"
#include "graph/reference.h"

namespace xbfs::algos {

using core::kUnreachedDist;
using graph::eid_t;
using graph::vid_t;

DeltaSsspEngine::DeltaSsspEngine(sim::Device& dev, const graph::DeviceCsr& g,
                                 double alpha)
    : dev_(dev), g_(g), alpha_(alpha) {
  dist_ = dev.alloc<std::uint32_t>(g.n, "sssp.dist");
  dirty_ = dev.alloc<std::uint8_t>(g.n, "sssp.dirty");
  counters_ = dev.alloc<std::uint32_t>(4, "sssp.counters");
}

core::AlgoResult DeltaSsspEngine::solve(const core::AlgoQuery& q) {
  sim::Stream& s = dev_.stream(0);
  const double t0_us = dev_.now_us();
  core::AlgoResult result;
  result.payload.kind = core::AlgoKind::Sssp;

  const vid_t src = q.source;
  const std::uint32_t max_weight = std::max(1u, q.params.max_weight);
  const std::uint64_t seed = q.params.weight_seed;
  const std::uint32_t delta =
      q.params.delta != 0 ? q.params.delta : max_weight;
  const double alpha = alpha_;

  auto dist = dist_.span();
  auto dirty = dirty_.span();
  auto counters = counters_.span();
  auto offsets = g_.offsets_span();
  auto cols = g_.cols_span();
  const std::uint64_t n = g_.n;
  const std::uint64_t m = std::max<std::uint64_t>(1, g_.m);

  const sim::LaunchConfig lc = core::full_width_launch(dev_.profile(), n);
  const sim::LaunchConfig rc{.grid_blocks = 1, .block_threads = 64};

  dev_.launch(s, "sssp_ds_init", lc, [=](sim::BlockCtx& blk) {
    auto& ctx = blk.ctx();
    blk.grid_stride(n, [&](std::uint64_t v) {
      ctx.store(dist, v, v == src ? 0u : kUnreachedDist);
      ctx.store(dirty, v, v == src ? std::uint8_t{1} : std::uint8_t{0});
    });
  });

  std::uint64_t relaxations = 0;
  std::uint32_t buckets = 0;
  std::uint32_t bucket_lo = 0;
  bool done = src >= n;
  while (!done) {
    const std::uint32_t bucket_hi =
        bucket_lo > kUnreachedDist - delta ? kUnreachedDist : bucket_lo + delta;
    const double bucket_t0 = dev_.now_us();
    dev_.profiler().set_context(static_cast<int>(buckets), "delta-sssp");

    core::LevelStats st;
    st.level = buckets;
    st.strategy = core::Strategy::ScanFree;

    // Inner fixpoint: relax until no in-bucket vertex is dirty — only then
    // is every distance below bucket_hi final (weights are >= 1, so later
    // buckets cannot improve them).
    for (;;) {
      dev_.launch(s, "sssp_ds_reset", rc, [=](sim::BlockCtx& blk) {
        auto& ctx = blk.ctx();
        blk.threads([&](unsigned t) {
          if (t < 4) {
            ctx.store(counters, t, t == 3 ? kUnreachedDist : 0u);
          }
        });
      });
      dev_.launch(s, "sssp_ds_scan", lc, [=](sim::BlockCtx& blk) {
        auto& ctx = blk.ctx();
        blk.grid_stride(n, [&](std::uint64_t v) {
          if (!ctx.load(dirty, v)) {
            ctx.slots(1, 1);
            return;
          }
          const std::uint32_t dv = ctx.atomic_load(dist, v);
          if (dv >= bucket_hi) return;
          ctx.atomic_add(counters, 0, 1u);
          const eid_t deg = ctx.load(offsets, v + 1) - ctx.load(offsets, v);
          ctx.atomic_add(counters, 1, static_cast<std::uint32_t>(deg));
          ctx.slots(4, 4);
        });
      });
      s.synchronize();
      dev_.memcpy_d2h(s, counters_);
      const std::uint32_t active = counters_.h_read(0);
      if (active == 0) break;
      const std::uint32_t active_edges = counters_.h_read(1);
      st.frontier_count += active;
      st.frontier_edges += active_edges;

      // The paper's r-vs-alpha direction rule, applied per inner iteration:
      // gather (pull) when the in-bucket frontier's edges saturate the
      // graph, scatter (push) otherwise.
      const double r = static_cast<double>(active_edges) / static_cast<double>(m);
      const bool pull = r > alpha;
      if (pull) st.strategy = core::Strategy::BottomUp;

      if (!pull) {
        dev_.launch(s, "sssp_ds_push", lc, [=](sim::BlockCtx& blk) {
          auto& ctx = blk.ctx();
          // Same contract as async_sssp: the dirty flags are deliberately
          // unsynchronized (distances are the atomics) — a lost set
          // re-marks via atomicMin's return on the next improvement, a
          // lost clear only re-relaxes a settled vertex.
          sim::racy_ok allow(ctx,
                             "delta-sssp push: unsynchronized dirty-flag "
                             "set/clear; convergence is driven by atomicMin "
                             "on dist");
          blk.grid_stride(n, [&](std::uint64_t v) {
            if (!ctx.load(dirty, v)) {
              ctx.slots(1, 1);
              return;
            }
            if (ctx.atomic_load(dist, v) >= bucket_hi) return;  // keep dirty
            // Clear before re-loading the distance: an improvement landing
            // after the clear re-marks the flag, one landing before the
            // re-load is propagated by this very relaxation — either way
            // nothing is lost.
            ctx.store(dirty, v, std::uint8_t{0});
            const std::uint32_t dv = ctx.atomic_load(dist, v);
            const eid_t b = ctx.load(offsets, v);
            const eid_t e = ctx.load(offsets, v + 1);
            std::uint32_t relaxed = 0;
            for (eid_t j = b; j < e; ++j) {
              const vid_t w = ctx.load(cols, j);
              const std::uint32_t wt = graph::synth_weight(
                  static_cast<vid_t>(v), w, seed, max_weight);
              const std::uint32_t cand = dv + wt;
              const std::uint32_t old = ctx.atomic_min(dist, w, cand);
              ++relaxed;
              if (cand < old) ctx.store(dirty, w, std::uint8_t{1});
            }
            ctx.slots(2 * (e - b) + 2, 2 * (e - b) + 2);
            if (relaxed > 0) ctx.atomic_add(counters, 2, relaxed);
          });
        });
      } else {
        // One pull round propagates every settled/in-bucket distance to
        // all neighbors (each vertex reads its whole adjacency), so the
        // in-bucket dirty flags it supersedes are cleared first.
        dev_.launch(s, "sssp_ds_clear", lc, [=](sim::BlockCtx& blk) {
          auto& ctx = blk.ctx();
          blk.grid_stride(n, [&](std::uint64_t v) {
            if (ctx.load(dirty, v) && ctx.atomic_load(dist, v) < bucket_hi) {
              ctx.store(dirty, v, std::uint8_t{0});
            }
            ctx.slots(2, 2);
          });
        });
        dev_.launch(s, "sssp_ds_pull", lc, [=](sim::BlockCtx& blk) {
          auto& ctx = blk.ctx();
          // Gathers read neighbor distances other lanes are improving in
          // the same pass; tentative distances only decrease, so a stale
          // read is re-gathered on a later iteration (the vertex stays or
          // becomes dirty), never kept wrongly small.
          sim::racy_ok allow(ctx,
                             "delta-sssp pull: concurrent reads of "
                             "monotonically decreasing neighbor distances");
          blk.grid_stride(n, [&](std::uint64_t v) {
            const eid_t b = ctx.load(offsets, v);
            const eid_t e = ctx.load(offsets, v + 1);
            const std::uint32_t dv = ctx.atomic_load(dist, v);
            std::uint32_t best = dv;
            std::uint32_t relaxed = 0;
            for (eid_t j = b; j < e; ++j) {
              const vid_t w = ctx.load(cols, j);
              const std::uint32_t dw = ctx.atomic_load(dist, w);
              if (dw == kUnreachedDist) continue;
              const std::uint32_t wt = graph::synth_weight(
                  static_cast<vid_t>(v), w, seed, max_weight);
              ++relaxed;
              if (dw + wt < best) best = dw + wt;
            }
            if (best < dv) {
              ctx.atomic_min(dist, v, best);
              ctx.store(dirty, v, std::uint8_t{1});
            }
            ctx.slots(2 * (e - b) + 2, 2 * (e - b) + 2);
            if (relaxed > 0) ctx.atomic_add(counters, 2, relaxed);
          });
        });
      }
      s.synchronize();
      dev_.memcpy_d2h(s, counters_);
      relaxations += counters_.h_read(2);
      st.kernels += pull ? 4 : 3;
    }

    // Advance to the bucket holding the smallest still-dirty distance; no
    // dirty vertex left means the fixpoint is global.
    dev_.launch(s, "sssp_ds_next", lc, [=](sim::BlockCtx& blk) {
      auto& ctx = blk.ctx();
      blk.grid_stride(n, [&](std::uint64_t v) {
        if (!ctx.load(dirty, v)) {
          ctx.slots(1, 1);
          return;
        }
        ctx.atomic_min(counters, 3, ctx.atomic_load(dist, v));
        ctx.slots(3, 3);
      });
    });
    s.synchronize();
    dev_.memcpy_d2h(s, counters_);
    const std::uint32_t next_dist = counters_.h_read(3);

    st.ratio = static_cast<double>(st.frontier_edges) / static_cast<double>(m);
    st.time_ms = (dev_.now_us() - bucket_t0) / 1000.0;
    st.kernels += 1;
    result.level_stats.push_back(st);
    ++buckets;

    if (next_dist == kUnreachedDist) {
      done = true;
    } else {
      bucket_lo = next_dist / delta * delta;
    }
  }

  dev_.memcpy_d2h(s, dist_);
  s.synchronize();
  const std::uint32_t* dist_host = std::as_const(dist_).host_data();
  result.payload.distances = std::make_shared<const std::vector<std::uint32_t>>(
      dist_host, dist_host + n);
  result.payload.depth = buckets;
  result.total_ms = (dev_.now_us() - t0_us) / 1000.0;
  result.work_items = relaxations;
  last_relaxations_ = relaxations;
  return result;
}

}  // namespace xbfs::algos
