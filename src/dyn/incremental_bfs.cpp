#include "dyn/incremental_bfs.h"

#include <algorithm>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/frontier.h"
#include "core/report.h"
#include "core/status.h"

namespace xbfs::dyn {

using core::kUnvisited;
using graph::eid_t;
using graph::vid_t;

namespace {

/// In-place deletion sentinel in the device cols array.  Shares the
/// kUnvisited bit pattern: a real vertex id never reaches it (vid_t max),
/// so kernels can skip tombstoned entries with one compare.
constexpr vid_t kTombstone = static_cast<vid_t>(kUnvisited);

sim::LaunchConfig round_launch(const sim::Device& dev,
                               const core::XbfsConfig& cfg,
                               std::uint64_t work) {
  sim::LaunchConfig lc;
  lc.block_threads = cfg.block_threads;
  lc.grid_blocks = cfg.grid_blocks != 0
                       ? cfg.grid_blocks
                       : core::auto_grid_blocks(
                             dev.profile(), std::max<std::uint64_t>(1, work),
                             cfg.block_threads);
  return lc;
}

}  // namespace

IncrementalBfs::IncrementalBfs(sim::Device& dev, GraphStore& store,
                               core::XbfsConfig cfg)
    : dev_(dev), store_(store), cfg_(cfg) {
  if (const xbfs::Status s = cfg_.validate(); !s.ok()) {
    throw std::invalid_argument("IncrementalBfs: " + s.to_string());
  }
  const vid_t n = store_.snapshot().graph->num_vertices();
  const std::size_t cap = std::max<std::size_t>(1, n);
  d_status_ = dev_.alloc<std::uint32_t>(cap, "dyn.status");
  d_queue_a_ = dev_.alloc<vid_t>(cap, "dyn.queue_a");
  d_queue_b_ = dev_.alloc<vid_t>(cap, "dyn.queue_b");
  d_dirty_ = dev_.alloc<vid_t>(cap, "dyn.dirty");
  for (core::CounterSet& set : counter_sets_) {
    set.counters =
        dev_.alloc<std::uint32_t>(core::kNumCounters, "dyn.counters");
    set.edge_counters =
        dev_.alloc<std::uint64_t>(core::kNumEdgeCounters, "dyn.edge_counters");
  }
  prime_counters();
  status_host_.resize(n);
}

void IncrementalBfs::sync_device(const Snapshot& snap) {
  const DeltaCsr& g = *snap.graph;
  const graph::Csr& base = g.base();
  sim::Stream& s = dev_.stream(0);

  if (!synced_once_ || synced_base_version_ != g.base_version()) {
    // Full base upload: first run, or compact() rebuilt the base (which
    // also relocates every tombstone index).
    d_offsets_ = dev_.alloc<eid_t>(base.offsets().size(), "dyn.offsets");
    d_cols_ =
        dev_.alloc<vid_t>(std::max<std::size_t>(1, base.cols().size()),
                          "dyn.cols");
    d_offsets_.h_copy_from(base.offsets().data(), base.offsets().size());
    if (!base.cols().empty()) {
      d_cols_.h_copy_from(base.cols().data(), base.cols().size());
    }
    dev_.memcpy_h2d(s, base.payload_bytes());
    d_offsets_.mark_device_synced();
    d_cols_.mark_device_synced();
    device_tombs_.clear();
    synced_base_version_ = g.base_version();
    stat_.full_uploads.add();
  }

  if (synced_once_ && synced_epoch_ == snap.epoch) return;

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
        patch_val.push_back(kTombstone);
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
    auto cols = d_cols_.span();
    const std::uint64_t count = patch_idx.size();
    sim::LaunchConfig lc;
    lc.block_threads = cfg_.block_threads;
    lc.grid_blocks = core::auto_grid_blocks(dev_.profile(), count,
                                            cfg_.block_threads);
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
  if (d_ov_vid_.size() < std::max<std::size_t>(1, ov_vid.size())) {
    const std::size_t cap = std::max<std::size_t>(1, ov_vid.size() * 2);
    d_ov_vid_ = dev_.alloc<vid_t>(cap, "dyn.ov_vid");
    d_ov_off_ = dev_.alloc<eid_t>(cap + 1, "dyn.ov_off");
  }
  if (d_ov_cols_.size() < std::max<std::size_t>(1, ov_cols.size())) {
    d_ov_cols_ = dev_.alloc<vid_t>(std::max<std::size_t>(1, ov_cols.size() * 2),
                                   "dyn.ov_cols");
  }
  if (!ov_vid.empty()) d_ov_vid_.h_copy_from(ov_vid.data(), ov_vid.size());
  d_ov_off_.h_copy_from(ov_off.data(), ov_off.size());
  if (!ov_cols.empty()) {
    d_ov_cols_.h_copy_from(ov_cols.data(), ov_cols.size());
  }
  dev_.memcpy_h2d(s, ov_vid.size() * sizeof(vid_t) +
                         ov_off.size() * sizeof(eid_t) +
                         ov_cols.size() * sizeof(vid_t));
  d_ov_vid_.mark_device_synced();
  d_ov_off_.mark_device_synced();
  d_ov_cols_.mark_device_synced();
  ov_count_ = static_cast<std::uint32_t>(ov_vid.size());

  synced_epoch_ = snap.epoch;
  synced_once_ = true;
  stat_.device_syncs.add();
}

IncrementalBfs::RepairPlan IncrementalBfs::plan_repair(
    const DeltaCsr& g, const std::vector<std::int32_t>& old_levels,
    const EdgeBatch& ops, vid_t src) const {
  RepairPlan p;
  const vid_t n = g.num_vertices();
  const std::size_t footprint_cap =
      static_cast<std::size_t>(cfg_.dyn_repair_ratio * n) + 1;

  std::vector<char> in_dirty(n, 0);
  std::map<std::uint32_t, std::vector<vid_t>> suspects;
  std::vector<std::pair<vid_t, vid_t>> insert_pairs;
  for (const EdgeOp& op : ops.ops) {
    if (op.u == op.v || op.u >= n || op.v >= n) continue;
    if (op.insert) {
      p.delete_only = false;
      insert_pairs.emplace_back(op.u, op.v);
    } else {
      // A deletion only threatens the deeper endpoint of a tree-edge-shaped
      // pair (old levels differing by exactly one).
      if (old_levels[op.u] >= 0 && old_levels[op.v] == old_levels[op.u] + 1) {
        suspects[static_cast<std::uint32_t>(old_levels[op.v])].push_back(op.v);
      }
      if (old_levels[op.v] >= 0 && old_levels[op.u] == old_levels[op.v] + 1) {
        suspects[static_cast<std::uint32_t>(old_levels[op.u])].push_back(op.u);
      }
    }
  }

  // Invalidation cascade in ascending old-level order: a suspect stays
  // settled iff a level-1 neighbor outside D survives in the new graph.
  while (!suspects.empty()) {
    const auto sit = suspects.begin();
    const std::uint32_t lvl = sit->first;
    std::vector<vid_t> bucket = std::move(sit->second);
    suspects.erase(sit);
    for (const vid_t x : bucket) {
      if (in_dirty[x] ||
          old_levels[x] != static_cast<std::int32_t>(lvl) || x == src) {
        continue;
      }
      bool supported = false;
      g.for_each_neighbor(x, [&](vid_t w) {
        if (!supported && !in_dirty[w] &&
            old_levels[w] + 1 == static_cast<std::int32_t>(lvl)) {
          supported = true;
        }
      });
      if (supported) continue;
      in_dirty[x] = 1;
      p.dirty.push_back(x);
      if (p.dirty.size() > footprint_cap) {
        p.feasible = false;
        return p;
      }
      g.for_each_neighbor(x, [&](vid_t w) {
        if (!in_dirty[w] &&
            old_levels[w] == static_cast<std::int32_t>(lvl) + 1) {
          suspects[lvl + 1].push_back(w);
        }
      });
    }
  }

  // Repair frontier: the settled boundary of D, plus settled endpoints of
  // inserted edges (roots of any level-decrease cascade).  The lists stay
  // separate (with separate dedup) because bottom-up repairs drop the
  // boundary but must keep every insert seed.
  std::unordered_set<vid_t> in_boundary;
  for (const vid_t d : p.dirty) {
    g.for_each_neighbor(d, [&](vid_t w) {
      if (in_dirty[w] || old_levels[w] < 0) return;
      if (!in_boundary.insert(w).second) return;
      p.boundary.push_back(w);
      p.boundary_edges += g.degree(w);
      ++p.seed_count;
    });
  }
  std::unordered_set<vid_t> seeded;
  const auto add_seed = [&](vid_t w) {
    if (in_dirty[w] || old_levels[w] < 0) return;
    if (!seeded.insert(w).second) return;
    p.insert_seeds.push_back(w);
    ++p.seed_count;
  };
  // An insert endpoint is a useful seed only when the new edge can actually
  // improve its partner: partner dirty (unknown new level), unreached, or
  // more than one level deeper.  A settled partner at old[a]+1 or less
  // gains nothing from a settled `a` (labels are decrease-only), and if `a`
  // itself later improves it gets claimed and relaxes the edge anyway —
  // so the pruned seed can never be the missing predecessor.  On skewed
  // graphs this drops the vast majority of random-insert seeds.
  const auto maybe_seed = [&](vid_t a, vid_t b) {
    if (old_levels[a] < 0) return;
    if (in_dirty[b] || old_levels[b] < 0 ||
        old_levels[b] > old_levels[a] + 1) {
      add_seed(a);
    }
  };
  for (const auto& [u, v] : insert_pairs) {
    maybe_seed(u, v);
    maybe_seed(v, u);
  }

  if (p.dirty.size() + p.seed_count > footprint_cap) p.feasible = false;
  return p;
}

struct IncrementalBfs::DeltaView {
  sim::dspan<const eid_t> offsets;
  sim::dspan<const vid_t> cols;
  sim::dspan<const vid_t> ov_vid;   ///< touched vertices, sorted
  sim::dspan<const eid_t> ov_off;   ///< ov_count+1 offsets
  sim::dspan<const vid_t> ov_cols;  ///< inserted neighbors
  std::uint32_t ov_count = 0;

  /// Base row length of w, tombstones included and overlay excluded: the
  /// degree the frontier-edge counters accumulate.
  eid_t row_len(sim::ExecCtx& ctx, vid_t w) const {
    return ctx.load(offsets, w + 1) - ctx.load(offsets, w);
  }

  /// Visit v's live neighbors: the base row minus tombstones, then v's
  /// overlay row.  `f(w)` returns false to stop the walk.  Returns the
  /// entries probed, tombstones included.
  template <typename F>
  std::uint64_t walk(sim::ExecCtx& ctx, vid_t v, F&& f) const {
    std::uint64_t probed = 0;
    const eid_t b = ctx.load(offsets, v);
    const eid_t e = ctx.load(offsets, v + 1);
    for (eid_t j = b; j < e; ++j) {
      const vid_t w = ctx.load(cols, j);
      ++probed;
      if (w == kTombstone) continue;
      if (!f(w)) return probed;
    }
    if (ov_count == 0) return probed;
    std::uint32_t lo = 0, hi = ov_count;
    while (lo < hi) {
      const std::uint32_t mid = (lo + hi) / 2;
      if (ctx.load(ov_vid, mid) < v) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == ov_count || ctx.load(ov_vid, lo) != v) return probed;
    const eid_t ob = ctx.load(ov_off, lo);
    const eid_t oe = ctx.load(ov_off, lo + 1);
    for (eid_t j = ob; j < oe; ++j) {
      ++probed;
      if (!f(ctx.load(ov_cols, j))) return probed;
    }
    return probed;
  }
};

struct IncrementalBfs::Round {
  DeltaView g;
  sim::dspan<std::uint32_t> status;
  sim::dspan<const vid_t> queue;
  sim::dspan<vid_t> next_queue;
  std::uint32_t qcap = 0;        ///< next_queue capacity (|V|)
  core::CounterSpans counters;   ///< this round's set
  core::CounterSpans zero;       ///< the other set, until a kernel zeroes it
};

void IncrementalBfs::prime_counters() {
  sim::Stream& s = dev_.stream(0);
  for (core::CounterSet& set : counter_sets_) {
    set.counters.h_fill(0);
    set.edge_counters.h_fill(0);
  }
  dev_.memcpy_h2d(s, counter_sets_[0].counters, counter_sets_[0].edge_counters,
                  counter_sets_[1].counters, counter_sets_[1].edge_counters);
  counters_ready_ = true;
}

IncrementalBfs::Frontier IncrementalBfs::inject(
    const DeltaCsr& g, const std::vector<vid_t>& seeds) {
  Frontier f;
  if (!seeds.empty()) {
    d_queue_a_.h_copy_from(seeds.data(), seeds.size());
    dev_.memcpy_h2d(dev_.stream(0), seeds.size() * sizeof(vid_t));
    d_queue_a_.mark_device_synced();
  }
  f.count = static_cast<std::uint32_t>(seeds.size());
  for (const vid_t v : seeds) f.edges += g.degree(v);
  return f;
}

IncrementalBfs::Round IncrementalBfs::begin_round(const Frontier& f) {
  Round r;
  r.g = {d_offsets_.cspan(), d_cols_.cspan(),    d_ov_vid_.cspan(),
         d_ov_off_.cspan(),  d_ov_cols_.cspan(), ov_count_};
  r.status = d_status_.span();
  r.queue = (f.in_a ? d_queue_a_ : d_queue_b_).cspan();
  r.next_queue = (f.in_a ? d_queue_b_ : d_queue_a_).span();
  r.qcap = static_cast<std::uint32_t>(d_status_.size());
  r.counters = counter_sets_[cur_set_].spans();
  r.zero = counter_sets_[cur_set_ ^ 1].spans();
  return r;
}

void IncrementalBfs::launch_push(Round& r, std::uint32_t count) {
  const Round a = r;
  r.zero = {};
  dev_.launch(dev_.stream(0), "dyn_fix_push",
              round_launch(dev_, cfg_, count), [=](sim::BlockCtx& blk) {
    auto& ctx = blk.ctx();
    core::zero_counter_set(blk, a.zero);
    // Frontier label reads race with other blocks' atomic_min decreases:
    // a stale (higher) read only weakens this relaxation, and whichever
    // block lowered the label re-enqueued the vertex, so the quiescent
    // fixpoint is unchanged.  In a recompute every queued vertex still
    // holds the round's level, so next = level + 1 there.
    sim::racy_ok allow(ctx,
                       "dyn-fix-push: frontier label reads vs "
                       "concurrent atomic_min decreases (decrease-only "
                       "fixpoint; improvements always re-enqueue)");
    blk.grid_stride(count, [&](std::uint64_t i) {
      const vid_t v = ctx.load(a.queue, i);
      const std::uint32_t lvl = ctx.load(a.status, v);
      if (lvl == kUnvisited) return;  // defensive: seeds are settled
      const std::uint32_t next = lvl + 1;
      std::uint64_t claimed_deg = 0;
      std::uint32_t claimed = 0;
      const std::uint64_t probed = a.g.walk(ctx, v, [&](vid_t w) {
        const std::uint32_t prior = ctx.atomic_min(a.status, w, next);
        if (prior > next) {
          const std::uint32_t slot = ctx.atomic_add(
              a.counters.counters, core::kNextTail, std::uint32_t{1});
          if (slot < a.qcap) ctx.store(a.next_queue, slot, w);
          claimed_deg += a.g.row_len(ctx, w);
          ++claimed;
        }
        return true;
      });
      ctx.slots(probed, probed);
      if (claimed != 0) {
        ctx.atomic_add(a.counters.edge_counters, core::kNextEdges,
                       claimed_deg);
      }
    });
  });
}

void IncrementalBfs::launch_pull(Round& r, vid_t n, std::uint32_t level) {
  const Round a = r;
  r.zero = {};
  const std::uint32_t next = level + 1;
  dev_.launch(dev_.stream(0), "dyn_repair_pull", round_launch(dev_, cfg_, n),
              [=](sim::BlockCtx& blk) {
    auto& ctx = blk.ctx();
    core::zero_counter_set(blk, a.zero);
    // The candidate pre-check and the neighbor status probes race with
    // other blocks' claims; both directions of the race either defer the
    // vertex to a later pass or re-claim the same value.
    sim::racy_ok allow(ctx,
                       "dyn-pull: unsynchronized status probes vs "
                       "concurrent atomic_min claims (settled labels "
                       "are final in recompute passes)");
    blk.grid_stride(n, [&](std::uint64_t i) {
      const vid_t v = static_cast<vid_t>(i);
      if (ctx.load(a.status, v) <= next) return;  // settled at or better
      bool found = false;
      const std::uint64_t probed = a.g.walk(ctx, v, [&](vid_t w) {
        found = ctx.load(a.status, w) == level;
        return !found;
      });
      ctx.slots(probed, found ? probed : 0);
      if (!found) return;
      const std::uint32_t prior = ctx.atomic_min(a.status, v, next);
      if (prior > next) {
        const std::uint32_t slot = ctx.atomic_add(
            a.counters.counters, core::kNextTail, std::uint32_t{1});
        ctx.store(a.next_queue, slot, v);
        ctx.atomic_add(a.counters.edge_counters, core::kNextEdges,
                       a.g.row_len(ctx, v));
      }
    });
  });
}

void IncrementalBfs::launch_pull_dirty(Round& r, std::uint32_t dirty_count) {
  const Round a = r;
  r.zero = {};
  auto dirty = d_dirty_.cspan();
  dev_.launch(dev_.stream(0), "dyn_fix_pull",
              round_launch(dev_, cfg_, dirty_count), [=](sim::BlockCtx& blk) {
    auto& ctx = blk.ctx();
    core::zero_counter_set(blk, a.zero);
    // Neighbor label probes race with concurrent atomic_min decreases:
    // reading a label high only defers the improvement to a later round
    // (the loop runs until no round improves anything).
    sim::racy_ok allow(ctx,
                       "dyn-fix-pull: neighbor label probes vs "
                       "concurrent atomic_min decreases (decrease-only "
                       "fixpoint over the dirty list)");
    blk.grid_stride(dirty_count, [&](std::uint64_t i) {
      const vid_t v = ctx.load(dirty, i);
      const std::uint32_t cur = ctx.load(a.status, v);
      std::uint32_t best = kUnvisited;
      const std::uint64_t probed = a.g.walk(ctx, v, [&](vid_t w) {
        best = std::min(best, ctx.load(a.status, w));
        return true;
      });
      if (best == kUnvisited || best + 1 >= cur) {
        ctx.slots(probed, 0);
        return;
      }
      ctx.slots(probed, probed);
      const std::uint32_t cand = best + 1;
      const std::uint32_t prior = ctx.atomic_min(a.status, v, cand);
      if (prior > cand) {
        const std::uint32_t slot = ctx.atomic_add(
            a.counters.counters, core::kNextTail, std::uint32_t{1});
        if (slot < a.qcap) ctx.store(a.next_queue, slot, v);
        ctx.atomic_add(a.counters.edge_counters, core::kNextEdges,
                       a.g.row_len(ctx, v));
      }
    });
  });
}

void IncrementalBfs::end_round(core::LevelStats st, double t0, Frontier& f,
                               core::BfsResult& result) {
  sim::Stream& s = dev_.stream(0);
  s.synchronize();
  const core::LevelCounters c =
      core::read_counters(dev_, s, counter_sets_[cur_set_]);
  cur_set_ ^= 1;
  st.frontier_count = f.count;
  st.frontier_edges = f.edges;
  st.time_ms = (dev_.now_us() - t0) / 1000.0;
  result.level_stats.push_back(st);
  f = {!f.in_a, c.next_count, c.next_edges};
}

void IncrementalBfs::run_recompute(const Snapshot& snap, vid_t src,
                                   core::BfsResult& result) {
  const DeltaCsr& g = *snap.graph;
  const vid_t n = g.num_vertices();
  const double m =
      static_cast<double>(std::max<graph::eid_t>(1, g.num_edges()));
  Frontier f = inject(g, {src});
  for (std::uint32_t level = 0; f.count != 0 && level <= n; ++level) {
    dev_.profiler().set_context(static_cast<int>(level), "incremental");
    const double t0 = dev_.now_us();
    core::LevelStats st;
    st.level = level;
    st.ratio = static_cast<double>(f.edges) / m;
    st.kernels = 1;
    // The r-vs-alpha analogue, per level: a wide frontier flips to the
    // bottom-up pull over the whole vertex range.  Pull's settled-support
    // argument needs decrease-free labels, which a recompute guarantees.
    Round r = begin_round(f);
    if (st.ratio > cfg_.alpha) {
      st.strategy = core::Strategy::BottomUp;
      launch_pull(r, n, level);
    } else {
      st.strategy = core::Strategy::ScanFree;
      launch_push(r, f.count);
    }
    end_round(st, t0, f, result);
  }
}

bool IncrementalBfs::run_fixpoint(const Snapshot& snap,
                                  const std::vector<vid_t>& seed_vec,
                                  bool pull_mode, std::uint32_t dirty_count,
                                  core::BfsResult& result) {
  const DeltaCsr& g = *snap.graph;
  const vid_t n = g.num_vertices();
  const bool do_pull = pull_mode && dirty_count != 0;
  if (seed_vec.empty() && !do_pull) {
    return true;  // nothing can improve; the prior labels stand
  }
  const double m =
      static_cast<double>(std::max<graph::eid_t>(1, g.num_edges()));

  // The whole repair frontier goes in at once; rounds then run to
  // quiescence.
  Frontier f = inject(g, seed_vec);
  for (std::uint32_t round = 0;; ++round) {
    if (round > n + 1) return false;  // safety net: cycles are impossible
    dev_.profiler().set_context(static_cast<int>(round), "incremental");
    const double t0 = dev_.now_us();
    core::LevelStats st;
    st.level = round;
    st.strategy =
        do_pull ? core::Strategy::BottomUp : core::Strategy::ScanFree;
    st.ratio = static_cast<double>(f.edges) / m;
    Round r = begin_round(f);
    if (f.count != 0) {
      launch_push(r, f.count);
      ++st.kernels;
    }
    if (do_pull) {
      launch_pull_dirty(r, dirty_count);
      ++st.kernels;
    }
    end_round(st, t0, f, result);
    if (f.count > n) return false;  // queue overflow; recompute
    if (f.count == 0) return true;  // quiescent: no label improved
  }
}

core::BfsResult IncrementalBfs::run(vid_t src) {
  stat_.runs.add();
  sim::Stream& s = dev_.stream(0);
  const double t0_us = dev_.now_us();
  const std::size_t prof_start = dev_.profiler().records().size();
  core::BfsResult result;

  const Snapshot snap = store_.snapshot();
  sync_device(snap);
  snap_ = snap;
  const DeltaCsr& g = *snap.graph;
  const vid_t n = g.num_vertices();
  if (src >= n) throw std::invalid_argument("IncrementalBfs: bad source");

  // Decide: repair from the prior level array, or full recompute.
  bool repair = false;
  RepairPlan plan;
  LastRun lr;
  lr.epoch = snap.epoch;
  lr.fallback = "no-history";
  const auto hit = history_.find(src);
  if (hit != history_.end()) {
    bool truncated = false;
    const std::optional<EdgeBatch> ops =
        store_.ops_between(hit->second.epoch, snap.epoch, &truncated);
    if (!ops) {
      stat_.fallbacks_log.add();
      // Distinguish discarded history (the bounded log wrapped) from a
      // stale/bogus remembered epoch — both recompute, but only the former
      // is capacity pressure an operator can size away.
      lr.fallback = truncated ? "log-gap" : "epoch-range";
    } else {
      plan = plan_repair(g, hit->second.levels, *ops, src);
      lr.dirty = plan.dirty.size();
      lr.seeds = plan.seed_count;
      if (plan.feasible) {
        repair = true;
        lr.fallback = "";
      } else {
        stat_.fallbacks_ratio.add();
        lr.fallback = "ratio";
      }
    }
  }

  // A fault that aborted the last run mid-round left the counter sets in
  // an unknown state; re-zero them from the host.
  if (!counters_ready_) prime_counters();
  counters_ready_ = false;
  if (repair) {
    const std::vector<std::int32_t>& old = hit->second.levels;
    for (vid_t v = 0; v < n; ++v) {
      status_host_[v] = old[v] < 0 ? kUnvisited
                                   : static_cast<std::uint32_t>(old[v]);
    }
    for (const vid_t d : plan.dirty) status_host_[d] = kUnvisited;
    const std::uint32_t dirty_count =
        static_cast<std::uint32_t>(plan.dirty.size());
    std::uint64_t dirty_edges = 0;
    if (dirty_count != 0) {
      d_dirty_.h_copy_from(plan.dirty.data(), plan.dirty.size());
      dev_.memcpy_h2d(s, plan.dirty.size() * sizeof(vid_t));
      d_dirty_.mark_device_synced();
      for (const vid_t d : plan.dirty) dirty_edges += g.degree(d);
    }
    // r-vs-alpha on the repair subproblem: push the settled boundary
    // top-down while its edges stay under alpha x the dirty region's
    // incident edges; past that (hub-heavy boundaries) flip bottom-up and
    // pull into the dirty list instead, never walking hub adjacencies.
    const bool pull_mode =
        dirty_count != 0 &&
        static_cast<double>(plan.boundary_edges) >
            cfg_.alpha * static_cast<double>(std::max<std::uint64_t>(
                             1, dirty_edges));
    std::vector<vid_t> seed_vec;
    seed_vec.reserve(plan.seed_count);
    if (!pull_mode) {
      seed_vec.insert(seed_vec.end(), plan.boundary.begin(),
                      plan.boundary.end());
    }
    seed_vec.insert(seed_vec.end(), plan.insert_seeds.begin(),
                    plan.insert_seeds.end());
    stat_.dirty_vertices.add(dirty_count);
    stat_.repair_seeds.add(plan.seed_count);

    // One full status upload per run: repair starts from the prior labels
    // (4|V| bytes h2d), which is what it pays instead of re-traversing.
    d_status_.h_copy_from(status_host_.data(), n);
    dev_.memcpy_h2d(s, d_status_);
    if (!run_fixpoint(snap, seed_vec, pull_mode, dirty_count, result)) {
      // Repair queue overflowed its |V| capacity — the footprint estimate
      // was wrong in the same direction the ratio bound guards against.
      repair = false;
      stat_.fallbacks_ratio.add();
      lr.fallback = "overflow";
      result.level_stats.clear();
    }
  }
  if (!repair) {
    std::fill(status_host_.begin(), status_host_.end(), kUnvisited);
    status_host_[src] = 0;
    d_status_.h_copy_from(status_host_.data(), n);
    dev_.memcpy_h2d(s, d_status_);
    run_recompute(snap, src, result);
  }
  counters_ready_ = true;

  dev_.memcpy_d2h(s, d_status_);
  s.synchronize();
  const std::uint32_t* status_host = std::as_const(d_status_).host_data();
  result.levels.resize(n);
  std::int32_t max_level = 0;
  std::uint64_t reached_degree = 0;
  for (vid_t v = 0; v < n; ++v) {
    if (status_host[v] == kUnvisited) {
      result.levels[v] = -1;
    } else {
      result.levels[v] = static_cast<std::int32_t>(status_host[v]);
      max_level = std::max(max_level, result.levels[v]);
      reached_degree += g.degree(v);
    }
  }
  result.depth = static_cast<std::uint32_t>(max_level) + 1;
  result.total_ms = (dev_.now_us() - t0_us) / 1000.0;
  result.edges_traversed = reached_degree / 2;
  result.gteps = core::safe_gteps(result.edges_traversed, result.total_ms);

  remember(src, result.levels, snap.epoch);
  const std::uint64_t spent_us =
      static_cast<std::uint64_t>(result.total_ms * 1000.0);
  if (repair) {
    stat_.repairs.add();
    stat_.repair_us.add(spent_us);
  } else {
    stat_.recomputes.add();
    stat_.recompute_us.add(spent_us);
  }
  lr.valid = true;
  lr.repair = repair;
  last_run_ = lr;
  if (cfg_.report_runs) {
    core::record_run(result, "incremental_bfs", n, g.num_edges(),
                     static_cast<std::int64_t>(src), &cfg_,
                     &dev_.profiler(), prof_start);
  }
  return result;
}

void IncrementalBfs::remember(vid_t src,
                              const std::vector<std::int32_t>& levels,
                              std::uint64_t epoch) {
  const auto it = history_.find(src);
  if (it == history_.end()) {
    while (history_order_.size() >=
           std::max(1u, cfg_.dyn_history_sources)) {
      history_.erase(history_order_.front());
      history_order_.pop_front();
    }
    history_order_.push_back(src);
  }
  history_[src] = Prior{levels, epoch};
}

void IncrementalBfs::clear_history() {
  history_.clear();
  history_order_.clear();
}

DynEngineStats IncrementalBfs::stats() const {
  DynEngineStats s;
  const Handles& c = stat_;
  XBFS_STAT_LOAD(XBFS_DYN_ENGINE_STATS)
  return s;
}

}  // namespace xbfs::dyn
