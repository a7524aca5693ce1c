// IncrementalBfs: BFS over a dynamic graph with incremental repair
// (docs/dynamic.md), the dynamic-graph TraversalEngine.
//
// The engine keeps, per source, the level array of its last run and the
// epoch it was computed at.  On the next run for that source it replays
// the update batches between the two epochs (GraphStore::ops_between) and
// repairs instead of recomputing:
//
//   1. Invalidation (host, Ramalingam/Reps-style): deleted edges seed
//      "suspect" vertices whose old level might have depended on the lost
//      edge; suspects are processed in ascending old-level order — a
//      suspect with a surviving level-1 neighbor outside the dirty set is
//      still supported, anything else joins the dirty set D and cascades
//      to its old level+1 neighbors.  Levels outside D remain valid upper
//      bounds on the new graph.
//   2. Repair frontier: the settled boundary of D plus the still-settled
//      endpoints of inserted edges that can actually improve their partner.
//      D resets to unvisited; the frontier is injected at once and an
//      asynchronous decrease-only fixpoint (device atomic_min, enqueue on
//      every improvement) runs until quiescent.  Rounds scale with the
//      dirty-region diameter, not the graph depth — that locality is where
//      repair beats recompute.  The adaptive policy is the paper's
//      r-vs-alpha bound applied to the subproblem: when the boundary
//      frontier's edges stay under alpha times the dirty region's incident
//      edges, repair pushes top-down from the boundary; past it (hub-heavy
//      boundaries) repair flips bottom-up — every round pulls 1+min over
//      neighbors into the dirty list only, so hub adjacencies are never
//      walked, while filtered insert endpoints still push so improvements
//      outside D propagate.
//   3. Policy: when (|D| + seeds) / |V| exceeds
//      XbfsConfig::dyn_repair_ratio — the dynamic analogue of the paper's
//      r-vs-alpha bound — repair would touch too much of the graph and the
//      engine falls back to a full recompute: level-synchronous rounds
//      from {src@0}, each a push over the frontier or, past the same alpha
//      ratio, a bottom-up pull over the whole vertex range.
//
// Device state is a mirror of the DeltaCsr: the flat base CSR uploaded
// once per base_version (re-uploaded after compact()), deletions patched
// in place as kTombstone sentinels in the cols array (revived by writing
// the original vertex id back), and the insert overlay as a small sorted
// (vertex, offset, cols) triple rebuilt per epoch sync.  Every kernel
// reads adjacency through one view of that mirror (DeltaView::walk), the
// push kernel serves both drivers, and rounds keep Xbfs's counter
// protocol: one kernel-zeroed, double-buffered core::CounterSet pair and
// one readback per round.  All kernel memory traffic goes through the
// SimSan-checked ExecCtx accessors; the intentional status races carry
// sim::racy_ok annotations.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/config.h"
#include "core/algorithm_engine.h"
#include "core/frontier.h"
#include "dyn/graph_store.h"
#include "hipsim/device.h"
#include "obs/stat_table.h"

namespace xbfs::dyn {

/// Engine stats (relaxed handles: stats() may be read while another thread
/// is inside run()).  Modelled time is counted in whole microseconds per
/// run so every handle stays a lock-free counter.
#define XBFS_DYN_ENGINE_STATS(COUNTER, HISTOGRAM, VALUE, REPORT)               \
  COUNTER(runs, "runs", None, "run() calls")                                   \
  COUNTER(repairs, "runs", None, "runs served by incremental repair")          \
  COUNTER(recomputes, "runs", None, "full recomputes (fallbacks too)")         \
  COUNTER(fallbacks_ratio, "runs", None, "repair over dyn_repair_ratio")       \
  COUNTER(fallbacks_log, "runs", None, "epoch gap off the delta log")          \
  COUNTER(dirty_vertices, "vertices", None, "dirty-set sizes, summed")         \
  COUNTER(repair_seeds, "vertices", None, "seed-frontier sizes, summed")       \
  COUNTER(device_syncs, "syncs", None, "device-mirror epoch syncs")            \
  COUNTER(full_uploads, "uploads", None, "base re-uploads")                    \
  COUNTER(patched_entries, "entries", None, "in-place mirror writes")          \
  COUNTER(repair_us, "us", Modelled, "device time summed over repairs")        \
  COUNTER(recompute_us, "us", Modelled, "device time summed over recomputes")  \
  VALUE(double, repair_ms, "repair_ms", Derived, "ms", Modelled,               \
        "repair_us / 1000", static_cast<double>(s.repair_us) / 1000.0)         \
  VALUE(double, recompute_ms, "recompute_ms", Derived, "ms", Modelled,         \
        "recompute_us / 1000", static_cast<double>(s.recompute_us) / 1000.0)

struct DynEngineStats {
  XBFS_STAT_FIELDS(XBFS_DYN_ENGINE_STATS)
};

class IncrementalBfs final : public core::TraversalEngine {
 public:
  /// Only the dyn_* knobs, alpha, block_threads/grid_blocks and
  /// report_runs of `cfg` are read.  Throws std::invalid_argument on an
  /// invalid config.
  IncrementalBfs(sim::Device& dev, GraphStore& store,
                 core::XbfsConfig cfg = {});

  /// Canonical hop distances from `src` on the store's current snapshot.
  /// Not reentrant (device buffers are reused) — callers serialize runs
  /// per engine, as the serving ladder does.
  core::BfsResult run(graph::vid_t src) override;

  const char* name() const override { return "incremental"; }
  core::EngineCapabilities capabilities() const override {
    return {.on_device = true, .adaptive = true, .builds_parents = false};
  }

  DynEngineStats stats() const;
  /// The snapshot the last run() traversed (valid under the same
  /// serialization as run(); the serving path reads it while still holding
  /// the per-GCD lock).
  const Snapshot& served() const { return snap_; }

  /// Why the last run() took the path it did: repair vs recompute, the
  /// fallback reason, and the dirty-region footprint.  Valid under the
  /// same serialization as run()/served(); the serving path copies it
  /// while still holding the per-GCD lock and threads it into the query
  /// trace (read-lane causality for the write lane's epoch).
  struct LastRun {
    bool valid = false;
    bool repair = false;
    /// Recompute reason: "" (repaired), "no-history", "log-gap",
    /// "epoch-range", "ratio", "overflow".
    const char* fallback = "";
    std::uint64_t epoch = 0;  ///< snapshot epoch traversed
    std::uint64_t dirty = 0;  ///< |D| of the attempted repair plan
    std::uint64_t seeds = 0;  ///< repair seed-frontier size
  };
  const LastRun& last_run() const { return last_run_; }
  /// Drop all prior-level history: every subsequent run() recomputes.
  void clear_history();

 private:
  /// What a repair run must touch, derived on the host from the prior
  /// levels and the replayed ops.
  struct RepairPlan {
    bool feasible = true;
    bool delete_only = true;
    std::vector<graph::vid_t> dirty;  ///< D: reset to unvisited
    /// Settled boundary of D (pushed only in top-down repairs) and the
    /// filtered inserted-edge endpoints (always pushed).  The two lists
    /// may overlap; push relaxation is idempotent.
    std::vector<graph::vid_t> boundary;
    std::vector<graph::vid_t> insert_seeds;
    std::uint64_t boundary_edges = 0;  ///< Σ degree over `boundary`
    std::size_t seed_count = 0;
  };

  /// Device neighbor view of the mirror and one round's kernel arguments
  /// (both defined in incremental_bfs.cpp).
  struct DeltaView;
  struct Round;
  /// A round's frontier: the queue holding it, its size and its degree sum.
  struct Frontier {
    bool in_a = true;
    std::uint32_t count = 0;
    std::uint64_t edges = 0;
  };

  void sync_device(const Snapshot& snap);
  RepairPlan plan_repair(const DeltaCsr& g,
                         const std::vector<std::int32_t>& old_levels,
                         const EdgeBatch& ops, graph::vid_t src) const;
  /// Full recompute: level-synchronous rounds from {src@0}, each one push
  /// over the frontier or, past alpha, one pull over the whole vertex
  /// range.
  void run_recompute(const Snapshot& snap, graph::vid_t src,
                     core::BfsResult& result);
  /// Repair path: asynchronous decrease-only fixpoint from `seeds` (all
  /// injected up front).  In `pull_mode` every round additionally scans
  /// the dirty list (d_dirty_, `dirty_count` entries) bottom-up, so hub
  /// boundaries never have to be pushed; rounds run until no label
  /// improves.  Returns false on queue overflow (caller falls back to
  /// recompute).
  bool run_fixpoint(const Snapshot& snap,
                    const std::vector<graph::vid_t>& seeds, bool pull_mode,
                    std::uint32_t dirty_count, core::BfsResult& result);

  // Pieces both drivers share.
  /// Zero both counter sets from the host (construction, or after a run
  /// that a fault aborted mid-round).
  void prime_counters();
  /// One h2d of `seeds` into queue_a: the first round's frontier.
  Frontier inject(const DeltaCsr& g, const std::vector<graph::vid_t>& seeds);
  Round begin_round(const Frontier& f);
  /// The three kernels.  Whichever a round launches first also zeroes the
  /// other counter set (and clears Round::zero).
  void launch_push(Round& r, std::uint32_t count);
  void launch_pull(Round& r, graph::vid_t n, std::uint32_t level);
  void launch_pull_dirty(Round& r, std::uint32_t dirty_count);
  /// Sync, read the round's counter set back, record its LevelStats and
  /// swap the queues.
  void end_round(core::LevelStats st, double t0, Frontier& f,
                 core::BfsResult& result);
  void remember(graph::vid_t src, const std::vector<std::int32_t>& levels,
                std::uint64_t epoch);

  sim::Device& dev_;
  GraphStore& store_;
  core::XbfsConfig cfg_;
  Snapshot snap_;  ///< last synced/served snapshot

  // Device mirror of the DeltaCsr.
  sim::DeviceBuffer<graph::eid_t> d_offsets_;
  sim::DeviceBuffer<graph::vid_t> d_cols_;
  sim::DeviceBuffer<graph::vid_t> d_ov_vid_;   ///< touched vertices, sorted
  sim::DeviceBuffer<graph::eid_t> d_ov_off_;   ///< ov_count_+1 offsets
  sim::DeviceBuffer<graph::vid_t> d_ov_cols_;  ///< inserted neighbors
  std::uint32_t ov_count_ = 0;
  sim::DeviceBuffer<graph::eid_t> d_patch_idx_;
  sim::DeviceBuffer<graph::vid_t> d_patch_val_;
  /// Base-cols indices currently holding the kTombstone sentinel on the
  /// device (diffed against the snapshot's tombstones per sync).
  std::unordered_set<graph::eid_t> device_tombs_;
  std::uint64_t synced_base_version_ = 0;
  std::uint64_t synced_epoch_ = 0;
  bool synced_once_ = false;

  // Traversal state.
  sim::DeviceBuffer<std::uint32_t> d_status_;
  sim::DeviceBuffer<graph::vid_t> d_queue_a_;
  sim::DeviceBuffer<graph::vid_t> d_queue_b_;
  sim::DeviceBuffer<graph::vid_t> d_dirty_;
  /// Round k accumulates into counter_sets_[cur_set_] and its first kernel
  /// zeroes the other set for round k+1 — Xbfs's protocol, carried across
  /// runs.  counters_ready_ is false while a run's rounds are in flight,
  /// so the run after one a fault aborted re-primes both sets.
  core::CounterSet counter_sets_[2];
  unsigned cur_set_ = 0;
  bool counters_ready_ = false;
  std::vector<std::uint32_t> status_host_;

  // Per-source prior levels (FIFO-bounded by cfg_.dyn_history_sources).
  struct Prior {
    std::vector<std::int32_t> levels;
    std::uint64_t epoch = 0;
  };
  std::unordered_map<graph::vid_t, Prior> history_;
  std::deque<graph::vid_t> history_order_;
  LastRun last_run_;

  struct Handles {
    XBFS_STAT_HANDLES(XBFS_DYN_ENGINE_STATS)
  };
  Handles stat_;
};

}  // namespace xbfs::dyn
