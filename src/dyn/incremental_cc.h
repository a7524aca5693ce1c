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

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/algorithm_engine.h"
#include "dyn/graph_store.h"

namespace xbfs::dyn {

struct IncCcStats {
  std::uint64_t runs = 0;
  std::uint64_t served_cached = 0;     ///< epoch unchanged; payload reshared
  std::uint64_t repairs = 0;           ///< insert-only union-find merges
  std::uint64_t recomputes = 0;        ///< full recomputes (incl. fallbacks)
  std::uint64_t fallbacks_delete = 0;  ///< gap contained a delete op
  std::uint64_t fallbacks_log = 0;     ///< epoch gap fell off the store log
  std::uint64_t ops_replayed = 0;      ///< ops union-found across repairs
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
  core::EngineCapabilities capabilities() const override {
    return {.incremental = true};
  }

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

  std::atomic<std::uint64_t> runs_{0};
  std::atomic<std::uint64_t> served_cached_{0};
  std::atomic<std::uint64_t> repairs_{0};
  std::atomic<std::uint64_t> recomputes_{0};
  std::atomic<std::uint64_t> fallbacks_delete_{0};
  std::atomic<std::uint64_t> fallbacks_log_{0};
  std::atomic<std::uint64_t> ops_replayed_{0};
};

}  // namespace xbfs::dyn
