#include "algos/bc.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "core/status.h"  // kUnvisited, full_width_launch

namespace xbfs::algos {

using core::kUnvisited;
using graph::eid_t;
using graph::vid_t;

BcResult betweenness_centrality(sim::Device& dev, const graph::DeviceCsr& g,
                                const std::vector<graph::vid_t>& sources) {
  const vid_t n = g.n;
  sim::Stream& s = dev.stream(0);
  const double t0 = dev.now_us();

  auto level_buf = dev.alloc<std::uint32_t>(n, "bc.level");
  auto sigma_buf = dev.alloc<double>(n, "bc.sigma");
  auto delta_buf = dev.alloc<double>(n, "bc.delta");
  auto bc_buf = dev.alloc<double>(n, "bc.centrality");
  auto active_buf = dev.alloc<std::uint32_t>(1, "bc.active");

  auto level = level_buf.span();
  auto sigma = sigma_buf.span();
  auto delta = delta_buf.span();
  auto bc = bc_buf.span();
  auto active = active_buf.span();
  auto offsets = g.offsets_span();
  auto cols = g.cols_span();

  const sim::LaunchConfig lc = core::full_width_launch(dev.profile(), n);

  dev.launch(s, "bc_zero", lc, [=](sim::BlockCtx& blk) {
    auto& ctx = blk.ctx();
    blk.grid_stride(n, [&](std::uint64_t v) { ctx.store(bc, v, 0.0); });
  });

  for (vid_t src : sources) {
    // --- forward phase: levels + shortest-path counts ---------------------
    dev.launch(s, "bc_init", lc, [=](sim::BlockCtx& blk) {
      auto& ctx = blk.ctx();
      blk.grid_stride(n, [&](std::uint64_t v) {
        ctx.store(level, v, v == src ? 0u : kUnvisited);
        ctx.store(sigma, v, v == src ? 1.0 : 0.0);
        ctx.store(delta, v, 0.0);
      });
    });

    std::uint32_t depth = 0;
    for (std::uint32_t cur = 0;; ++cur) {
      sim::LaunchConfig rc{.grid_blocks = 1, .block_threads = 64};
      dev.launch(s, "bc_reset", rc, [=](sim::BlockCtx& blk) {
        auto& ctx = blk.ctx();
        blk.threads([&](unsigned t) {
          if (t == 0) ctx.store(active, 0, std::uint32_t{0});
        });
      });
      // Pull step: unvisited vertices adjacent to the current level join
      // the next one and sum sigma over all current-level neighbors.
      dev.launch(s, "bc_forward", lc, [=](sim::BlockCtx& blk) {
        auto& ctx = blk.ctx();
        blk.grid_stride(n, [&](std::uint64_t v) {
          if (ctx.load(level, v) != kUnvisited) {
            ctx.slots(1, 1);
            return;
          }
          const eid_t b = ctx.load(offsets, v);
          const eid_t e = ctx.load(offsets, v + 1);
          double paths = 0.0;
          for (eid_t j = b; j < e; ++j) {
            const vid_t w = ctx.load(cols, j);
            if (ctx.atomic_load(level, w) == cur) {
              paths += ctx.load(sigma, w);
            }
          }
          ctx.slots(2 * (e - b) + 1, 2 * (e - b) + 1);
          if (paths > 0.0) {
            {
              // Races with other blocks' atomic_load(level, v) probes: a
              // probe sees kUnvisited or cur+1, and neither equals cur, so
              // the sigma sum for this pull step is unaffected.
              sim::racy_ok allow(ctx,
                                 "bc pull: plain level commit vs same-pass "
                                 "atomic level probes; joiners are never "
                                 "read as the current level");
              ctx.store(level, v, cur + 1);
            }
            ctx.store(sigma, v, paths);
            ctx.atomic_add(active, 0, std::uint32_t{1});
          }
        });
      });
      s.synchronize();
      dev.memcpy_d2h(s, active_buf);
      if (active_buf.h_read(0) == 0) break;
      depth = cur + 1;
    }

    // --- backward phase: dependency accumulation, deepest level first -----
    for (std::uint32_t cur = depth; cur-- > 0;) {
      // Vertices at `cur` pull dependencies from their level cur+1
      // neighbors: delta[v] += sigma[v]/sigma[w] * (1 + delta[w]).
      dev.launch(s, "bc_backward", lc, [=](sim::BlockCtx& blk) {
        auto& ctx = blk.ctx();
        blk.grid_stride(n, [&](std::uint64_t v) {
          if (ctx.load(level, v) != cur) {
            ctx.slots(1, 1);
            return;
          }
          const eid_t b = ctx.load(offsets, v);
          const eid_t e = ctx.load(offsets, v + 1);
          const double sv = ctx.load(sigma, v);
          double acc = 0.0;
          for (eid_t j = b; j < e; ++j) {
            const vid_t w = ctx.load(cols, j);
            if (ctx.load(level, w) == cur + 1) {
              acc += sv / ctx.load(sigma, w) * (1.0 + ctx.load(delta, w));
            }
          }
          ctx.slots(3 * (e - b) + 1, 3 * (e - b) + 1);
          if (acc != 0.0) ctx.store(delta, v, acc);
        });
      });
      s.synchronize();
    }
    // Accumulate this source's dependencies (excluding the source itself).
    dev.launch(s, "bc_accumulate", lc, [=](sim::BlockCtx& blk) {
      auto& ctx = blk.ctx();
      blk.grid_stride(n, [&](std::uint64_t v) {
        if (v == src) return;
        const double d = ctx.load(delta, v);
        if (d != 0.0) ctx.store(bc, v, ctx.load(bc, v) + d);
      });
    });
  }

  dev.memcpy_d2h(s, bc_buf);
  BcResult out;
  const double* bc_host = std::as_const(bc_buf).host_data();
  out.centrality.assign(bc_host, bc_host + n);
  out.total_ms = (dev.now_us() - t0) / 1000.0;
  return out;
}

std::vector<double> betweenness_reference(
    const graph::Csr& g, const std::vector<graph::vid_t>& sources) {
  const vid_t n = g.num_vertices();
  std::vector<double> bc(n, 0.0);
  for (vid_t src : sources) {
    std::vector<std::int32_t> dist(n, -1);
    std::vector<double> sigma(n, 0.0), delta(n, 0.0);
    std::vector<vid_t> order;  // BFS visit order
    order.reserve(n);
    std::deque<vid_t> queue{src};
    dist[src] = 0;
    sigma[src] = 1.0;
    while (!queue.empty()) {
      const vid_t v = queue.front();
      queue.pop_front();
      order.push_back(v);
      for (vid_t w : g.neighbors(v)) {
        if (dist[w] < 0) {
          dist[w] = dist[v] + 1;
          queue.push_back(w);
        }
        if (dist[w] == dist[v] + 1) sigma[w] += sigma[v];
      }
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const vid_t w = *it;
      for (vid_t v : g.neighbors(w)) {
        if (dist[v] == dist[w] - 1) {
          delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w]);
        }
      }
      if (w != src) bc[w] += delta[w];
    }
  }
  return bc;
}

}  // namespace xbfs::algos
