// GraphStore: epoch/snapshot versioning over a DeltaCsr (docs/dynamic.md).
//
// The store owns "the current graph" as an immutable shared_ptr<DeltaCsr>.
// Readers call snapshot() and get a refcounted Snapshot{graph, epoch,
// fingerprint}; the graph a snapshot points at is never mutated, so a BFS
// that is mid-flight when a writer lands keeps traversing a consistent
// topology.  Writers go through apply(): copy-on-write (clone the overlay,
// never the shared base), apply the batch, auto-compact past the
// XbfsConfig::dyn_compact_threshold overlay density, and atomically
// publish the new version.  Writes are serialized per store; reads are
// never blocked (snapshot() only takes the publish mutex for a pointer
// copy).
//
// An optional DurabilityHook (src/store) rides the serialized writer lane:
// append() must fsync a WAL record before publish (a failure aborts the
// apply — durable-then-visible), published() spills content-addressed
// snapshots at compaction points (docs/durability.md).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

#include "core/config.h"
#include "core/status_code.h"
#include "dyn/delta_csr.h"
#include "dyn/durability_hook.h"
#include "dyn/edge_batch.h"
#include "hipsim/lock_rank.h"

namespace xbfs::dyn {

/// A consistent, refcounted view of the graph at one epoch.  Cheap to
/// copy; holding one pins the underlying DeltaCsr (and its base) alive.
struct Snapshot {
  std::shared_ptr<const DeltaCsr> graph;
  std::uint64_t epoch = 0;
  std::uint64_t fingerprint = 0;
  explicit operator bool() const { return static_cast<bool>(graph); }
};

struct StoreStats {
  std::uint64_t batches_applied = 0;
  std::uint64_t inserts_applied = 0;
  std::uint64_t deletes_applied = 0;
  std::uint64_t noops = 0;
  std::uint64_t compactions = 0;
};

class GraphStore {
 public:
  /// The base must satisfy DeltaCsr's sorted+deduped precondition.  Only
  /// the dyn_* knobs of `cfg` are read.
  explicit GraphStore(graph::Csr base, core::XbfsConfig cfg = {});
  /// Recovery constructor (src/store/recovery): resume from a restored
  /// DeltaCsr (spilled snapshot base at its recorded epoch).
  explicit GraphStore(std::shared_ptr<const DeltaCsr> restored,
                      core::XbfsConfig cfg = {});

  GraphStore(const GraphStore&) = delete;
  GraphStore& operator=(const GraphStore&) = delete;

  Snapshot snapshot() const;
  std::uint64_t epoch() const;
  std::uint64_t fingerprint() const;

  /// Attach the durable write path (non-owning; the hook must outlive the
  /// store).  Must happen before writer traffic — the pointer is read
  /// unsynchronized on the apply lane.
  void attach_durability(DurabilityHook* hook) { hook_ = hook; }
  DurabilityHook* durability() const { return hook_; }

  /// Serialized writer lane: COW-apply the batch, maybe compact, make it
  /// durable (when a hook is attached), publish.  Throws std::runtime_error
  /// if the durability hook refuses — use try_apply to handle that as a
  /// status.
  ApplyStats apply(const EdgeBatch& batch);
  /// apply() with the durability failure surfaced as a Status instead of a
  /// throw.  On non-ok nothing was published: the epoch did not move.
  xbfs::Status try_apply(const EdgeBatch& batch, ApplyStats* out = nullptr);
  /// Recovery replay (src/store/recovery): re-apply a WAL-recorded batch,
  /// compacting exactly when the record says the pre-crash apply did — the
  /// policy is not re-derived, so the rebuilt epoch/fingerprint chain is
  /// identical to the one the WAL recorded.  Never consults the hook.
  ApplyStats apply_replayed(const EdgeBatch& batch, bool compacted);

  StoreStats stats() const;

 private:
  const core::XbfsConfig cfg_;
  DurabilityHook* hook_ = nullptr;  ///< set once before traffic; non-owning

  /// Ranked (writer=50 before publish=52): leaf-ward of the serving
  /// cycle/update/GCD locks — the dispatch path snapshots the store while
  /// holding a GCD lock — and below the pool lock (docs/modelcheck.md).
  sim::RankedMutex writer_mu_{50, "dyn.store.writer"};  ///< serializes apply()
  /// Guards current_, stats_ (pointer swap).
  mutable sim::RankedMutex mu_{52, "dyn.store.publish"};
  std::shared_ptr<const DeltaCsr> current_;
  StoreStats stats_;
};

}  // namespace xbfs::dyn
