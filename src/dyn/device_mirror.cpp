#include "dyn/device_mirror.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/status.h"

namespace xbfs::dyn {

using graph::eid_t;
using graph::vid_t;

DeviceMirror::DeviceMirror(sim::Device& dev, GraphStore& store,
                           unsigned block_threads)
    : dev_(dev), store_(store), block_threads_(block_threads) {
  csr_.n = store.snapshot().graph->num_vertices();
}

const Snapshot& DeviceMirror::sync() {
  stat_.runs.add();
  const Snapshot snap = store_.snapshot();
  const DeltaCsr& g = *snap.graph;
  const graph::Csr& base = g.base();
  sim::Stream& s = dev_.stream(0);

  if (!synced_once_ || synced_base_version_ != g.base_version()) {
    // Full base upload: first run, or compact() rebuilt the base (which
    // also relocates every tombstone index).
    csr_.offsets = dev_.alloc<eid_t>(base.offsets().size(), "dyn.offsets");
    csr_.cols =
        dev_.alloc<vid_t>(std::max<std::size_t>(1, base.cols().size()),
                          "dyn.cols");
    csr_.offsets.h_copy_from(base.offsets().data(), base.offsets().size());
    if (!base.cols().empty()) {
      csr_.cols.h_copy_from(base.cols().data(), base.cols().size());
    }
    dev_.memcpy_h2d(s, base.payload_bytes());
    csr_.offsets.mark_device_synced();
    csr_.cols.mark_device_synced();
    device_tombs_.clear();
    synced_base_version_ = g.base_version();
    stat_.full_uploads.add();
  }

  if (synced_once_ && synced_epoch_ == snap.epoch) return snap_ = snap;

  // Tombstone diff: in-place sentinel writes for new deletions, original
  // vertex ids written back for revived base edges.
  std::vector<eid_t> patch_idx;
  std::vector<vid_t> patch_val;
  std::unordered_set<eid_t> target;
  target.reserve(g.tombstone_entries());
  for (const auto& [v, dels] : g.tombstones()) {
    for (const vid_t w : dels) {
      const eid_t idx = g.base_edge_index(v, w);
      target.insert(idx);
      if (!device_tombs_.count(idx)) {
        patch_idx.push_back(idx);
        patch_val.push_back(graph::kTombstone);
      }
    }
  }
  for (const eid_t idx : device_tombs_) {
    if (!target.count(idx)) {
      patch_idx.push_back(idx);
      patch_val.push_back(base.cols()[idx]);
    }
  }
  if (!patch_idx.empty()) {
    if (d_patch_idx_.size() < patch_idx.size()) {
      d_patch_idx_ = dev_.alloc<eid_t>(patch_idx.size(), "dyn.patch_idx");
      d_patch_val_ = dev_.alloc<vid_t>(patch_idx.size(), "dyn.patch_val");
    }
    d_patch_idx_.h_copy_from(patch_idx.data(), patch_idx.size());
    d_patch_val_.h_copy_from(patch_val.data(), patch_val.size());
    dev_.memcpy_h2d(s, patch_idx.size() * (sizeof(eid_t) + sizeof(vid_t)));
    d_patch_idx_.mark_device_synced();
    d_patch_val_.mark_device_synced();

    auto idx_span = d_patch_idx_.cspan();
    auto val_span = d_patch_val_.cspan();
    auto cols = csr_.cols.span();
    const std::uint64_t count = patch_idx.size();
    sim::LaunchConfig lc;
    lc.block_threads = block_threads_;
    lc.grid_blocks = core::auto_grid_blocks(dev_.profile(), count,
                                            block_threads_);
    // Every patch index is distinct, so the plain stores cannot race.
    dev_.launch(s, "dyn_apply_patch", lc, [=](sim::BlockCtx& blk) {
      auto& ctx = blk.ctx();
      blk.grid_stride(count, [&](std::uint64_t i) {
        const eid_t at = ctx.load(idx_span, i);
        ctx.store(cols, static_cast<std::size_t>(at), ctx.load(val_span, i));
        ctx.slots(1, 1);
      });
    });
    s.synchronize();
    stat_.patched_entries.add(count);
  }
  device_tombs_ = std::move(target);

  // Insert overlay: small sorted (vertex, offset, cols) arrays rebuilt per
  // sync — overlay mass is bounded by the compaction threshold.
  std::vector<vid_t> ov_vid;
  ov_vid.reserve(g.extras().size());
  for (const auto& [v, _] : g.extras()) ov_vid.push_back(v);
  std::sort(ov_vid.begin(), ov_vid.end());
  std::vector<eid_t> ov_off(ov_vid.size() + 1, 0);
  std::vector<vid_t> ov_cols;
  ov_cols.reserve(g.extra_entries());
  for (std::size_t i = 0; i < ov_vid.size(); ++i) {
    const std::vector<vid_t>& ex = g.extras().at(ov_vid[i]);
    ov_cols.insert(ov_cols.end(), ex.begin(), ex.end());
    ov_off[i + 1] = ov_cols.size();
  }
  if (csr_.ov_vid.size() < std::max<std::size_t>(1, ov_vid.size())) {
    const std::size_t cap = std::max<std::size_t>(1, ov_vid.size() * 2);
    csr_.ov_vid = dev_.alloc<vid_t>(cap, "dyn.ov_vid");
    csr_.ov_off = dev_.alloc<eid_t>(cap + 1, "dyn.ov_off");
  }
  if (csr_.ov_cols.size() < std::max<std::size_t>(1, ov_cols.size())) {
    csr_.ov_cols = dev_.alloc<vid_t>(
        std::max<std::size_t>(1, ov_cols.size() * 2), "dyn.ov_cols");
  }
  if (!ov_vid.empty()) {
    csr_.ov_vid.h_copy_from(ov_vid.data(), ov_vid.size());
  }
  csr_.ov_off.h_copy_from(ov_off.data(), ov_off.size());
  if (!ov_cols.empty()) {
    csr_.ov_cols.h_copy_from(ov_cols.data(), ov_cols.size());
  }
  dev_.memcpy_h2d(s, ov_vid.size() * sizeof(vid_t) +
                         ov_off.size() * sizeof(eid_t) +
                         ov_cols.size() * sizeof(vid_t));
  csr_.ov_vid.mark_device_synced();
  csr_.ov_off.mark_device_synced();
  csr_.ov_cols.mark_device_synced();
  csr_.ov_count = static_cast<std::uint32_t>(ov_vid.size());
  csr_.m = g.num_edges();

  synced_epoch_ = snap.epoch;
  synced_once_ = true;
  stat_.device_syncs.add();
  return snap_ = snap;
}

void DeviceMirror::charge(double total_ms) {
  stat_.run_us.add(static_cast<std::uint64_t>(total_ms * 1000.0));
}

DynEngineStats DeviceMirror::stats() const {
  DynEngineStats s;
  const Handles& c = stat_;
  XBFS_STAT_LOAD(XBFS_DYN_ENGINE_STATS)
  return s;
}

}  // namespace xbfs::dyn
