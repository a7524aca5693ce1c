#include "algos/multi_bfs.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "core/status.h"  // full_width_launch
#include "graph/csr.h"

namespace xbfs::algos {

using graph::eid_t;
using graph::vid_t;

MultiBfsResult multi_source_bfs(sim::Device& dev, const graph::DeviceCsr& g,
                                const std::vector<graph::vid_t>& sources) {
  if (sources.empty() || sources.size() > 64) {
    throw std::invalid_argument("multi_source_bfs takes 1..64 sources");
  }
  const unsigned S = static_cast<unsigned>(sources.size());
  const vid_t n = g.n;
  sim::Stream& s = dev.stream(0);
  const double t0 = dev.now_us();

  // Per-vertex state: which searches have visited it, which reached it
  // this level, and which reach it next level.
  auto visited = dev.alloc<std::uint64_t>(n, "mbfs.visited");
  auto frontier = dev.alloc<std::uint64_t>(n, "mbfs.frontier");
  auto next = dev.alloc<std::uint64_t>(n, "mbfs.next");
  auto active = dev.alloc<std::uint32_t>(1, "mbfs.active");
  // Discovery levels, packed per source on the host afterwards.
  auto levels = dev.alloc<std::int32_t>(static_cast<std::size_t>(n) * S,
                                        "mbfs.levels");

  auto visited_s = visited.span();
  auto frontier_s = frontier.span();
  auto next_s = next.span();
  auto active_s = active.span();
  auto levels_s = levels.span();
  auto offsets = g.offsets_span();
  auto cols = g.cols_span();

  const sim::LaunchConfig lc = core::full_width_launch(dev.profile(), n);

  // Init: no search anywhere, all levels -1.
  dev.launch(s, "mbfs_init", lc, [=](sim::BlockCtx& blk) {
    auto& ctx = blk.ctx();
    blk.grid_stride(n, [&](std::uint64_t v) {
      ctx.store(visited_s, v, std::uint64_t{0});
      ctx.store(frontier_s, v, std::uint64_t{0});
      ctx.store(next_s, v, std::uint64_t{0});
      for (unsigned b = 0; b < S; ++b) {
        ctx.store(levels_s, v * S + b, std::int32_t{-1});
      }
    });
  });
  // Seed each search's source bit (host-prepared tiny kernel).
  {
    auto srcs = dev.alloc<vid_t>(S, "mbfs.sources");
    srcs.h_copy_from(sources.data(), S);
    dev.memcpy_h2d(s, srcs);
    auto srcs_s = srcs.cspan();
    sim::LaunchConfig seed{.grid_blocks = 1, .block_threads = 64};
    dev.launch(s, "mbfs_seed", seed, [=](sim::BlockCtx& blk) {
      auto& ctx = blk.ctx();
      blk.threads([&](unsigned t) {
        if (t >= S) return;
        const vid_t v = ctx.load(srcs_s, t);
        ctx.atomic_or(visited_s, v, std::uint64_t{1} << t);
        ctx.atomic_or(frontier_s, v, std::uint64_t{1} << t);
        ctx.store(levels_s, static_cast<std::uint64_t>(v) * S + t,
                  std::int32_t{0});
      });
    });
  }

  std::uint32_t depth = 0;
  for (std::int32_t level = 1;; ++level) {
    sim::LaunchConfig rc{.grid_blocks = 1, .block_threads = 64};
    dev.launch(s, "mbfs_reset", rc, [=](sim::BlockCtx& blk) {
      auto& ctx = blk.ctx();
      blk.threads([&](unsigned t) {
        if (t == 0) ctx.store(active_s, 0, std::uint32_t{0});
      });
    });

    // One sweep advances all searches: gather the OR of neighbor frontier
    // masks, keep the bits not yet visited here.
    const std::uint64_t all_searches =
        S == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << S) - 1);
    dev.launch(s, "mbfs_sweep", lc, [=](sim::BlockCtx& blk) {
      auto& ctx = blk.ctx();
      blk.grid_stride(n, [&](std::uint64_t v) {
        const std::uint64_t seen = ctx.load(visited_s, v);
        if (seen == all_searches) {
          ctx.slots(1, 1);
          return;
        }
        const eid_t b = ctx.load(offsets, v);
        const eid_t e = ctx.load(offsets, v + 1);
        std::uint64_t gather = 0;
        for (eid_t j = b; j < e; ++j) {
          const vid_t w = ctx.load(cols, j);
          gather |= ctx.load(frontier_s, w);
          // Early exit once every search already covers this vertex.
          if ((gather | seen) == all_searches) break;
        }
        const std::uint64_t fresh = gather & ~seen;
        ctx.slots(2 * (e - b) + 2, 2 * (e - b) + 2);
        if (fresh == 0) return;
        ctx.store(visited_s, v, seen | fresh);
        ctx.store(next_s, v, fresh);
        ctx.atomic_add(active_s, 0, std::uint32_t{1});
        for (unsigned bit = 0; bit < S; ++bit) {
          if (fresh & (std::uint64_t{1} << bit)) {
            ctx.store(levels_s, v * S + bit, level);
          }
        }
      });
    });
    s.synchronize();
    dev.memcpy_d2h(s, active);
    const std::uint32_t found = active.h_read(0);
    if (found == 0) break;
    depth = static_cast<std::uint32_t>(level);

    // frontier <- next; next <- 0 (single pass).
    dev.launch(s, "mbfs_advance", lc, [=](sim::BlockCtx& blk) {
      auto& ctx = blk.ctx();
      blk.grid_stride(n, [&](std::uint64_t v) {
        ctx.store(frontier_s, v, ctx.load(next_s, v));
        ctx.store(next_s, v, std::uint64_t{0});
      });
    });
  }

  dev.memcpy_d2h(s, levels);
  MultiBfsResult out;
  out.levels.assign(S, std::vector<std::int32_t>(n, -1));
  const std::int32_t* levels_host = std::as_const(levels).host_data();
  for (vid_t v = 0; v < n; ++v) {
    for (unsigned b = 0; b < S; ++b) {
      out.levels[b][v] = levels_host[static_cast<std::size_t>(v) * S + b];
    }
  }
  out.depth = depth;
  out.total_ms = (dev.now_us() - t0) / 1000.0;
  return out;
}

MultiBfsResult multi_source_bfs_batched(sim::Device& dev,
                                        const graph::DeviceCsr& g,
                                        const std::vector<vid_t>& sources) {
  if (sources.empty()) {
    throw std::invalid_argument("multi_source_bfs_batched takes >= 1 source");
  }
  MultiBfsResult out;
  out.levels.reserve(sources.size());
  for (std::size_t begin = 0; begin < sources.size();
       begin += kMaxConcurrentSources) {
    const std::size_t end =
        std::min(begin + kMaxConcurrentSources, sources.size());
    const std::vector<vid_t> chunk(sources.begin() + begin,
                                   sources.begin() + end);
    MultiBfsResult sweep = multi_source_bfs(dev, g, chunk);
    for (auto& lv : sweep.levels) out.levels.push_back(std::move(lv));
    out.total_ms += sweep.total_ms;
    out.depth = std::max(out.depth, sweep.depth);
  }
  return out;
}

std::vector<vid_t> group_sources(const graph::Csr& g,
                                 std::vector<vid_t> sources,
                                 unsigned group_size) {
  // Deduplicate, keeping the first occurrence's position: a repeated source
  // inside one sweep would burn a mask bit recomputing an identical search.
  {
    std::vector<vid_t> uniq;
    uniq.reserve(sources.size());
    std::vector<bool> seen_flag;
    for (const vid_t s : sources) {
      if (s >= seen_flag.size()) seen_flag.resize(s + 1, false);
      if (!seen_flag[s]) {
        seen_flag[s] = true;
        uniq.push_back(s);
      }
    }
    sources = std::move(uniq);
  }
  group_size = std::clamp(group_size, 1u, kMaxConcurrentSources);
  if (sources.size() <= 1 || group_size == 1) return sources;
  // Greedy GroupBy: repeatedly seed a group with the first unplaced source
  // and fill it with the unplaced sources most similar to the seed, where
  // similarity is the overlap between 1-hop neighborhoods (a cheap proxy
  // for early-frontier sharing).
  std::vector<vid_t> out;
  out.reserve(sources.size());
  std::vector<bool> placed(sources.size(), false);

  const auto overlap = [&](vid_t a, vid_t b) {
    // Sorted adjacency intersection size (builder keeps lists sorted).
    const auto na = g.neighbors(a);
    const auto nb = g.neighbors(b);
    std::size_t i = 0, j = 0, shared = 0;
    while (i < na.size() && j < nb.size()) {
      if (na[i] < nb[j]) {
        ++i;
      } else if (nb[j] < na[i]) {
        ++j;
      } else {
        ++shared;
        ++i;
        ++j;
      }
    }
    // Direct adjacency is as good as a shared neighbor.
    if (std::binary_search(na.begin(), na.end(), b)) ++shared;
    return shared;
  };

  for (std::size_t seed_idx = 0; seed_idx < sources.size(); ++seed_idx) {
    if (placed[seed_idx]) continue;
    const vid_t seed = sources[seed_idx];
    placed[seed_idx] = true;
    out.push_back(seed);
    // Score every unplaced source against the seed and take the best.
    std::vector<std::pair<std::size_t, std::size_t>> scored;  // (score, idx)
    for (std::size_t i = 0; i < sources.size(); ++i) {
      if (!placed[i]) scored.emplace_back(overlap(seed, sources[i]), i);
    }
    std::stable_sort(scored.begin(), scored.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first;
                     });
    for (std::size_t k = 0; k + 1 < group_size && k < scored.size(); ++k) {
      placed[scored[k].second] = true;
      out.push_back(sources[scored[k].second]);
    }
  }
  return out;
}

}  // namespace xbfs::algos
