// A CSR graph resident in simulated device memory, with the modelled
// host-to-device upload cost (part of the paper's n-to-n end-to-end time,
// which dominates on small graphs like Dblp), and the adjacency view every
// traversal kernel reads it through.
//
// The view also serves a dynamic graph's device mirror (dyn::DeviceMirror):
// deleted base entries hold the kTombstone sentinel in place, and inserted
// edges live in a small sorted insert overlay.  A flat graph has no
// overlay; its view issues exactly the flat CSR's loads.
#pragma once

#include <cstdint>
#include <cstring>

#include "graph/csr.h"
#include "hipsim/buffer.h"
#include "hipsim/device.h"
#include "hipsim/exec_ctx.h"

namespace xbfs::graph {

/// In-place deletion sentinel in a device cols array.  A real vertex id
/// never reaches it, so kernels skip a deleted entry with one compare and
/// never index per-vertex state with it.
inline constexpr vid_t kTombstone = ~vid_t{0};

/// Device adjacency of one vertex: its base CSR row (deleted entries equal
/// kTombstone), then its insert-overlay row.  `ov_count` is a kernel
/// argument: 0 means no overlay, so row() issues no overlay loads.
struct DeviceAdjacency {
  sim::dspan<const eid_t> offsets;
  sim::dspan<const vid_t> cols;
  sim::dspan<const vid_t> ov_vid;   ///< overlay vertices, sorted
  sim::dspan<const eid_t> ov_off;   ///< ov_count + 1 offsets into ov_cols
  sim::dspan<const vid_t> ov_cols;  ///< inserted neighbors
  std::uint32_t ov_count = 0;

  /// Where a vertex's entries live: `base` entries from `begin` in cols,
  /// then `ov` entries from `ov_begin` in ov_cols.
  struct Row {
    eid_t begin = 0;
    eid_t ov_begin = 0;
    std::uint32_t base = 0;
    std::uint32_t ov = 0;

    std::uint32_t len() const { return base + ov; }
  };

  /// Two offsets loads, plus a binary search of the overlay vertices when
  /// there is an overlay.
  Row row(sim::ExecCtx& ctx, vid_t v) const {
    Row r;
    r.begin = ctx.load(offsets, v);
    r.base = static_cast<std::uint32_t>(ctx.load(offsets, v + 1) - r.begin);
    if (ov_count == 0) return r;
    std::uint32_t lo = 0, hi = ov_count;
    std::uint64_t loads = 0;
    while (lo < hi) {
      const std::uint32_t mid = (lo + hi) / 2;
      ++loads;
      if (ctx.load(ov_vid, mid) < v) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo < ov_count && (++loads, ctx.load(ov_vid, lo) == v)) {
      r.ov_begin = ctx.load(ov_off, lo);
      r.ov = static_cast<std::uint32_t>(ctx.load(ov_off, lo + 1) - r.ov_begin);
      loads += 2;
    }
    ctx.slots(loads, loads);
    return r;
  }

  /// Entry j < r.len() of the row; base entries may be kTombstone.
  vid_t at(sim::ExecCtx& ctx, const Row& r, std::uint32_t j) const {
    return j < r.base ? ctx.load(cols, r.begin + j)
                      : ctx.load(ov_cols, r.ov_begin + (j - r.base));
  }

  /// Base row length, tombstones included and overlay excluded: the degree
  /// the frontier-edge counters sum.  Two loads.
  eid_t base_len(sim::ExecCtx& ctx, vid_t v) const {
    return ctx.load(offsets, v + 1) - ctx.load(offsets, v);
  }
};

struct DeviceCsr {
  sim::DeviceBuffer<eid_t> offsets;  ///< n+1 row offsets (8-byte)
  sim::DeviceBuffer<vid_t> cols;     ///< m adjacency entries (4-byte)
  vid_t n = 0;
  /// Live directed entries: the policy's |E|.
  eid_t m = 0;
  /// Insert overlay of a dynamic mirror (empty for a flat graph).
  sim::DeviceBuffer<vid_t> ov_vid;
  sim::DeviceBuffer<eid_t> ov_off;
  sim::DeviceBuffer<vid_t> ov_cols;
  std::uint32_t ov_count = 0;

  sim::dspan<const eid_t> offsets_span() const { return offsets.cspan(); }
  sim::dspan<const vid_t> cols_span() const { return cols.cspan(); }
  DeviceAdjacency adjacency() const {
    return {offsets.cspan(), cols.cspan(),    ov_vid.cspan(),
            ov_off.cspan(),  ov_cols.cspan(), ov_count};
  }

  /// Allocate device buffers, copy the CSR payload and charge the modelled
  /// h2d transfer time to `stream`.
  static DeviceCsr upload(sim::Device& dev, sim::Stream& stream,
                          const Csr& g) {
    DeviceCsr d;
    d.n = g.num_vertices();
    d.m = g.num_edges();
    d.offsets = dev.alloc<eid_t>(g.offsets().size(), "csr.offsets");
    d.cols = dev.alloc<vid_t>(g.cols().size(), "csr.cols");
    d.offsets.h_copy_from(g.offsets().data(), g.offsets().size());
    if (!g.cols().empty()) {
      d.cols.h_copy_from(g.cols().data(), g.cols().size());
    }
    // Modelled transfer of the packed payload (offsets may be padded, so
    // charge the graph's own byte count); mark both device-synced.
    dev.memcpy_h2d(stream, g.payload_bytes());
    d.offsets.mark_device_synced();
    d.cols.mark_device_synced();
    return d;
  }
  static DeviceCsr upload(sim::Device& dev, const Csr& g) {
    return upload(dev, dev.stream(0), g);
  }
};

}  // namespace xbfs::graph
