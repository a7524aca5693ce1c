// Startup recovery for durable GraphStores (docs/durability.md).
//
// State machine (each arrow is a validated step; any failure after the
// manifest exists refuses recovery with DataCorruption and dumps the
// flight recorder — a durable store that cannot prove its state must not
// serve):
//
//   read MANIFEST ──► load snapshot (CRC + identity vs manifest)
//        │                 │
//        │ missing         ▼
//        ▼            anchor check: DeltaCsr(base, epoch).fingerprint()
//   Unavailable            must equal the recorded snapshot fingerprint
//   (fresh dir)            │
//                          ▼
//                     scan WAL tail (longest valid prefix; a CRC-failed
//                     final record is a torn tail — truncated, not
//                     replayed)
//                          │
//                          ▼
//                     replay records epoch by epoch, re-applying each
//                     batch (compacting exactly where the record says)
//                     and verifying the fingerprint chain:
//                       prev_fingerprint == store fingerprint before,
//                       fingerprint      == store fingerprint after
//                          │
//                          ▼
//                     reopen the WAL at the truncation point; hand back
//                     the store + manager with recovery stats filled in.
#pragma once

#include "core/config.h"
#include "core/status_code.h"
#include "store/durability.h"

namespace xbfs::store {

/// Recover a durable store from cfg.dir.  Unavailable = no manifest (the
/// caller initializes fresh); DataCorruption = durable state exists but
/// cannot be proven consistent (refused; flight recorder dumped).
xbfs::Status recover_store(const DurabilityConfig& cfg,
                           core::XbfsConfig xbfs_cfg, DurableStore* out);

}  // namespace xbfs::store
