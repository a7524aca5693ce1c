// DurabilityManager — the store-side implementation of
// dyn::DurabilityHook, plus open_durable(), the one entry point callers
// use (docs/durability.md).
//
// Lifecycle of a durable GraphStore:
//
//   fresh dir:  epoch-0 snapshot spilled, empty WAL segment created,
//               manifest published — then every apply() appends one
//               fsync'd WAL record before the epoch becomes visible.
//   compaction: (density-triggered, or forced every snapshot_every epochs
//               by want_compact) the freshly-flattened base is spilled as
//               a content-addressed snapshot, a new WAL segment is
//               created, the manifest atomically switches to the new
//               (snapshot, WAL) pair, and the old pair is deleted.
//   restart:    open_durable sees the manifest and recovers instead
//               (store/recovery.h): snapshot + WAL-tail replay +
//               fingerprint-chain verification.
//
// Snapshots only happen at compaction points, where the DeltaCsr overlays
// are empty — so a recovered store (snapshot base + replayed tail, with
// per-record compaction flags re-applied) rebuilds the *identical*
// base/overlay split, and therefore the identical fingerprint sequence, as
// the store that wrote the log.  That is what makes recovered-vs-twin
// fingerprint equality provable rather than probabilistic.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/config.h"
#include "core/status_code.h"
#include "dyn/durability_hook.h"
#include "dyn/graph_store.h"
#include "graph/csr.h"
#include "store/wal.h"

namespace xbfs::store {

struct DurabilityConfig {
  std::string dir;  ///< storage directory (created if absent)
  /// Force a compaction — and with it a content-addressed snapshot spill +
  /// WAL rotation — every this many epochs, on top of the overlay-density
  /// trigger.  0 leaves spills to density compactions alone.
  std::uint64_t snapshot_every = 64;
};

class DurabilityManager final : public dyn::DurabilityHook {
 public:
  /// Built by open_durable / recover_store around a live WAL segment.
  DurabilityManager(DurabilityConfig cfg, WalWriter wal,
                    std::uint64_t last_spill_epoch, std::string snapshot_file,
                    dyn::DurabilityStats seed_stats);

  bool want_compact(std::uint64_t next_epoch, double density,
                    bool density_wants) override;
  xbfs::Status append(const dyn::EdgeBatch& batch, std::uint64_t epoch,
                      std::uint64_t fingerprint,
                      std::uint64_t prev_fingerprint, bool compacted) override;
  void published(const dyn::Snapshot& snap, bool compacted) override;
  dyn::DurabilityStats stats() const override;

 private:
  /// Spill snap as a snapshot, rotate the WAL, switch the manifest, delete
  /// the previous pair.  Failures are absorbed (flight-recorded + counted):
  /// the old (snapshot, longer-WAL) pair keeps full durability.
  void spill_and_rotate(const dyn::Snapshot& snap);

  const DurabilityConfig cfg_;
  // Writer-lane state (GraphStore serializes every hook call under its
  // writer mutex; no locking needed).
  WalWriter wal_;
  std::uint64_t last_spill_epoch_ = 0;
  std::string snapshot_file_;  ///< current manifest's snapshot, for GC
  /// Guards stats_ against concurrent stats() readers.
  mutable std::mutex mu_;
  dyn::DurabilityStats stats_;
};

/// A GraphStore with its attached durable write path.  `durability` must
/// outlive `store` traffic (the store holds a non-owning hook pointer).
struct DurableStore {
  std::unique_ptr<dyn::GraphStore> store;
  std::unique_ptr<DurabilityManager> durability;
};

/// Open-or-recover a durable GraphStore at cfg.dir.  A directory without a
/// manifest is initialized from `base` (epoch-0 snapshot + fresh WAL); a
/// directory with one recovers from it — `base` is then ignored, the graph
/// comes from the durable state.  Recovery-validation failures (broken
/// fingerprint chain, corrupt snapshot/manifest) refuse with
/// DataCorruption after a flight-recorder dump.
/// `log_capacity` is unused; bench/xbench still passes it.
xbfs::Status open_durable(const DurabilityConfig& cfg, graph::Csr base,
                          core::XbfsConfig xbfs_cfg, std::size_t log_capacity,
                          DurableStore* out);

}  // namespace xbfs::store
