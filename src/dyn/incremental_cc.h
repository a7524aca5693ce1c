// IncrementalCc: connected components over a dynamic graph with
// incremental repair — the CC member of the decrease-only family that
// IncrementalBfs opened (docs/dynamic.md).
//
// Component labels are canonical min-vertex-id labels
// (graph::canonical_components).  Edge inserts can only merge components —
// labels monotonically decrease — so an insert-only epoch gap repairs by
// union-find over the prior labels: each inserted edge unions its
// endpoints' label classes toward the smaller id, then every vertex's
// label is path-compressed to its class root.  That is O(batch + |V|)
// against O(|V| + |E|) for a recompute, the same locality argument as BFS
// repair.  Deletes can split components (an increase), which the
// decrease-only math cannot repair — any delete in the replayed gap, or a
// gap that fell off the store's bounded op log, falls back to a full
// recompute over the snapshot's DeltaCsr.
//
// Host-only engine: CC serving traffic on dynamic graphs is dominated by
// the label copy, and keeping it off the device means the dynamic ladder
// can serve CC even while the device is faulted.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/algorithm_engine.h"
#include "dyn/graph_store.h"
#include "obs/stat_table.h"

namespace xbfs::dyn {

#define XBFS_INC_CC_STATS(COUNTER, HISTOGRAM, VALUE, REPORT)                   \
  COUNTER(runs, "runs", None, "solve() calls")                                 \
  COUNTER(served_cached, "runs", None, "epoch unchanged: reshared")            \
  COUNTER(repairs, "runs", None, "insert-only union-find merges")              \
  COUNTER(recomputes, "runs", None, "full recomputes (fallbacks too)")         \
  COUNTER(fallbacks_delete, "runs", None, "epoch gap had a delete")            \
  COUNTER(fallbacks_log, "runs", None, "epoch gap off the delta log")          \
  COUNTER(ops_replayed, "ops", None, "ops union-found")

struct IncCcStats {
  XBFS_STAT_FIELDS(XBFS_INC_CC_STATS)
};

class IncrementalCc final : public core::AlgorithmEngine {
 public:
  explicit IncrementalCc(GraphStore& store);

  core::AlgoKind kind() const override { return core::AlgoKind::Cc; }
  /// Canonical min-id component labels on the store's current snapshot.
  /// Not reentrant (label state is reused) — callers serialize solves per
  /// engine, as the serving ladder does.
  core::AlgoResult solve(const core::AlgoQuery& q) override;
  const char* name() const override { return "inc-cc"; }
  core::EngineCapabilities capabilities() const override { return {}; }

  IncCcStats stats() const;
  /// The snapshot the last solve() labeled (valid under the same
  /// serialization as solve(); the serving path reads it while still
  /// holding the per-GCD lock).
  const Snapshot& served() const { return snap_; }
  /// Drop the label history: the next solve() recomputes.
  void clear_history();

 private:
  GraphStore& store_;
  Snapshot snap_;
  /// Labels of the last solve, shared with every payload handed out at
  /// that epoch (immutable once published — repairs build a fresh vector).
  std::shared_ptr<const std::vector<graph::vid_t>> labels_;
  std::uint64_t epoch_ = 0;
  bool valid_ = false;

  struct Handles {
    XBFS_STAT_HANDLES(XBFS_INC_CC_STATS)
  };
  Handles stat_;
};

}  // namespace xbfs::dyn
