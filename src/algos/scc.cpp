#include "algos/scc.h"

#include <algorithm>
#include <deque>
#include <map>
#include <utility>

#include "core/status.h"  // full_width_launch

namespace xbfs::algos {

using graph::eid_t;
using graph::vid_t;

namespace {

constexpr vid_t kUnassigned = static_cast<vid_t>(-1);

/// Device-side per-vertex state of the FW-BW search.
struct SccState {
  sim::DeviceBuffer<vid_t> color;      ///< current partition id
  sim::DeviceBuffer<vid_t> scc;        ///< assigned component (kUnassigned)
  sim::DeviceBuffer<std::uint8_t> fw;  ///< forward-reachable mark
  sim::DeviceBuffer<std::uint8_t> bw;  ///< backward-reachable mark
  sim::DeviceBuffer<std::uint32_t> changed;
};

/// Frontier-less reachability sweep: propagate `mark` from marked vertices
/// along `g` inside one partition color until a sweep makes no progress.
void reachability(sim::Device& dev, const graph::DeviceCsr& g,
                  SccState& st, sim::dspan<std::uint8_t> mark, vid_t color_id,
                  const char* kernel_name) {
  sim::Stream& s = dev.stream(0);
  auto offsets = g.offsets_span();
  auto cols = g.cols_span();
  auto color = st.color.cspan();
  auto scc = st.scc.cspan();
  auto changed = st.changed.span();
  const vid_t n = g.n;
  const sim::LaunchConfig lc = core::full_width_launch(dev.profile(), n);
  for (;;) {
    st.changed.h_write(0, 0);  // host reset; re-uploaded below
    dev.memcpy_h2d(s, st.changed);
    dev.launch(s, kernel_name, lc, [=](sim::BlockCtx& blk) {
      auto& ctx = blk.ctx();
      // Mark propagation is monotonic 0->1 with no synchronization: plain
      // reads race with other blocks' plain same-value stores, and a stale
      // read only defers the mark to the next fixed-point sweep.
      sim::racy_ok allow(ctx,
                         "scc sweep: monotonic reachability marks; stale "
                         "reads retry on the next sweep iteration");
      blk.grid_stride(n, [&](std::uint64_t v) {
        if (!ctx.load(mark, v) || ctx.load(color, v) != color_id ||
            ctx.load(scc, v) != kUnassigned) {
          ctx.slots(3, 3);
          return;
        }
        const eid_t b = ctx.load(offsets, v);
        const eid_t e = ctx.load(offsets, v + 1);
        for (eid_t j = b; j < e; ++j) {
          const vid_t w = ctx.load(cols, j);
          if (ctx.load(color, w) != color_id) continue;
          if (ctx.load(scc, w) != kUnassigned) continue;
          if (!ctx.atomic_load(mark, w)) {
            ctx.store(mark, w, std::uint8_t{1});
            ctx.atomic_add(changed, 0, std::uint32_t{1});
          }
        }
        ctx.slots(3 * (e - b) + 3, 3 * (e - b) + 3);
      });
    });
    s.synchronize();
    dev.memcpy_d2h(s, st.changed);
    if (st.changed.h_read(0) == 0) break;
  }
}

}  // namespace

SccResult scc_fw_bw(sim::Device& dev, const graph::DeviceCsr& fwd,
                    const graph::DeviceCsr& bwd) {
  const vid_t n = fwd.n;
  sim::Stream& s = dev.stream(0);
  const double t0 = dev.now_us();

  SccState st;
  st.color = dev.alloc<vid_t>(n, "scc.color");
  st.scc = dev.alloc<vid_t>(n, "scc.component");
  st.fw = dev.alloc<std::uint8_t>(n, "scc.fw_mark");
  st.bw = dev.alloc<std::uint8_t>(n, "scc.bw_mark");
  st.changed = dev.alloc<std::uint32_t>(1, "scc.changed");

  auto color = st.color.span();
  auto scc = st.scc.span();
  auto fw = st.fw.span();
  auto bw = st.bw.span();
  auto changed = st.changed.span();
  auto out_offsets = fwd.offsets_span();
  auto out_cols = fwd.cols_span();
  auto in_offsets = bwd.offsets_span();
  auto in_cols = bwd.cols_span();

  const sim::LaunchConfig lc = core::full_width_launch(dev.profile(), n);

  dev.launch(s, "scc_init", lc, [=](sim::BlockCtx& blk) {
    auto& ctx = blk.ctx();
    blk.grid_stride(n, [&](std::uint64_t v) {
      ctx.store(color, v, vid_t{0});
      ctx.store(scc, v, kUnassigned);
    });
  });

  SccResult result;
  vid_t next_scc = 0;
  vid_t next_color = 1;

  // --- trim-1: vertices with no unassigned in- or out-neighbor in their
  // partition are singleton SCCs; iterate to a fixed point.
  for (;;) {
    st.changed.h_write(0, 0);
    dev.memcpy_h2d(s, st.changed);
    const vid_t scc_base = next_scc;
    dev.launch(s, "scc_trim", lc, [=](sim::BlockCtx& blk) {
      auto& ctx = blk.ctx();
      blk.grid_stride(n, [&](std::uint64_t v) {
        if (ctx.load(scc, v) != kUnassigned) {
          ctx.slots(1, 1);
          return;
        }
        const vid_t cv = ctx.load(color, v);
        const auto live = [&](sim::dspan<const eid_t> offs,
                              sim::dspan<const vid_t> cs) {
          const eid_t b = ctx.load(offs, v);
          const eid_t e = ctx.load(offs, v + 1);
          for (eid_t j = b; j < e; ++j) {
            const vid_t w = ctx.load(cs, j);
            if (w != v && ctx.load(color, w) == cv &&
                ctx.atomic_load(scc, w) == kUnassigned) {
              return true;
            }
          }
          return false;
        };
        if (!live(out_offsets, out_cols) || !live(in_offsets, in_cols)) {
          // Singleton SCC; the id is finalized host-side afterwards.  The
          // plain commit races with other blocks' atomic liveness probes:
          // a probe that still sees kUnassigned only defers that vertex's
          // trim to the next fixed-point round.
          sim::racy_ok allow(ctx,
                             "scc trim: plain singleton commit vs same-pass "
                             "atomic liveness probes");
          ctx.store(scc, v, scc_base + static_cast<vid_t>(
                                ctx.atomic_add(changed, 0, std::uint32_t{1})));
        }
        ctx.slots(8, 8);
      });
    });
    s.synchronize();
    dev.memcpy_d2h(s, st.changed);
    const std::uint32_t trimmed_now = st.changed.h_read(0);
    if (trimmed_now == 0) break;
    next_scc += trimmed_now;
    result.trimmed += trimmed_now;
  }

  // --- FW-BW rounds over a host-side partition worklist --------------------
  std::deque<vid_t> worklist{0};
  while (!worklist.empty()) {
    const vid_t part = worklist.front();
    worklist.pop_front();

    // Pivot: first unassigned vertex of this partition (host scan of the
    // host-resident state; the partial d2h cost is modelled).
    dev.memcpy_d2h(s, n * (sizeof(vid_t) + sizeof(vid_t)) / 8);
    st.color.mark_host_synced();
    st.scc.mark_host_synced();
    const vid_t* color_host = std::as_const(st.color).host_data();
    const vid_t* scc_host = std::as_const(st.scc).host_data();
    vid_t pivot = kUnassigned;
    for (vid_t v = 0; v < n; ++v) {
      if (color_host[v] == part && scc_host[v] == kUnassigned) {
        pivot = v;
        break;
      }
    }
    if (pivot == kUnassigned) continue;  // partition fully assigned
    ++result.fwbw_rounds;

    // Clear marks, seed the pivot.
    dev.launch(s, "scc_seed", lc, [=](sim::BlockCtx& blk) {
      auto& ctx = blk.ctx();
      blk.grid_stride(n, [&](std::uint64_t v) {
        const std::uint8_t seed = v == pivot ? 1 : 0;
        ctx.store(fw, v, seed);
        ctx.store(bw, v, seed);
      });
    });

    reachability(dev, fwd, st, fw, part, "scc_forward_sweep");
    reachability(dev, bwd, st, bw, part, "scc_backward_sweep");

    // Classify: fw&bw -> the pivot's SCC; fw-only / bw-only / neither form
    // up to three sub-partitions that go back on the worklist.
    const vid_t scc_id = next_scc++;
    const vid_t c_fw = next_color++;
    const vid_t c_bw = next_color++;
    const vid_t c_rest = next_color++;
    dev.launch(s, "scc_classify", lc, [=](sim::BlockCtx& blk) {
      auto& ctx = blk.ctx();
      blk.grid_stride(n, [&](std::uint64_t v) {
        if (ctx.load(color, v) != part ||
            ctx.load(scc, v) != kUnassigned) {
          ctx.slots(2, 2);
          return;
        }
        const bool f = ctx.load(fw, v) != 0;
        const bool b = ctx.load(bw, v) != 0;
        if (f && b) {
          ctx.store(scc, v, scc_id);
        } else {
          ctx.store(color, v, f ? c_fw : (b ? c_bw : c_rest));
        }
        ctx.slots(4, 4);
      });
    });
    s.synchronize();
    worklist.push_back(c_fw);
    worklist.push_back(c_bw);
    worklist.push_back(c_rest);
  }

  // Compact component ids (trim assigned provisional ids already unique).
  dev.memcpy_d2h(s, st.scc);
  const vid_t* final_scc = std::as_const(st.scc).host_data();
  result.component.assign(final_scc, final_scc + n);
  result.num_components = next_scc;
  result.total_ms = (dev.now_us() - t0) / 1000.0;
  return result;
}

std::vector<vid_t> scc_reference(const graph::Csr& g, vid_t* num_components) {
  // Iterative Tarjan.
  const vid_t n = g.num_vertices();
  std::vector<vid_t> comp(n, kUnassigned);
  std::vector<std::int64_t> index(n, -1), low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<vid_t> stack;
  std::int64_t next_index = 0;
  vid_t next_comp = 0;

  struct Frame {
    vid_t v;
    std::size_t child;
  };
  std::vector<Frame> call;
  for (vid_t root = 0; root < n; ++root) {
    if (index[root] >= 0) continue;
    call.push_back({root, 0});
    while (!call.empty()) {
      Frame& f = call.back();
      const vid_t v = f.v;
      if (f.child == 0) {
        index[v] = low[v] = next_index++;
        stack.push_back(v);
        on_stack[v] = true;
      }
      const auto nb = g.neighbors(v);
      bool descended = false;
      while (f.child < nb.size()) {
        const vid_t w = nb[f.child++];
        if (index[w] < 0) {
          call.push_back({w, 0});
          descended = true;
          break;
        }
        if (on_stack[w]) low[v] = std::min(low[v], index[w]);
      }
      if (descended) continue;
      if (low[v] == index[v]) {
        for (;;) {
          const vid_t w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          comp[w] = next_comp;
          if (w == v) break;
        }
        ++next_comp;
      }
      call.pop_back();
      if (!call.empty()) {
        low[call.back().v] = std::min(low[call.back().v], low[v]);
      }
    }
  }
  if (num_components) *num_components = next_comp;
  return comp;
}

bool same_partition(const std::vector<vid_t>& a, const std::vector<vid_t>& b) {
  if (a.size() != b.size()) return false;
  std::map<vid_t, vid_t> fwd, rev;
  for (std::size_t v = 0; v < a.size(); ++v) {
    auto [itf, newf] = fwd.emplace(a[v], b[v]);
    if (itf->second != b[v]) return false;
    auto [itr, newr] = rev.emplace(b[v], a[v]);
    if (itr->second != a[v]) return false;
  }
  return true;
}

}  // namespace xbfs::algos
