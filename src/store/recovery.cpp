#include "store/recovery.h"

#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "dyn/delta_csr.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "store/manifest.h"
#include "store/snapshot_file.h"
#include "store/wal.h"

namespace xbfs::store {

namespace {

/// A durable store that cannot prove its state must not serve: record the
/// reason, dump the flight recorder, refuse.
xbfs::Status refuse(const xbfs::Status& s, std::uint64_t epoch = 0) {
  auto& fr = obs::FlightRecorder::global();
  fr.record("store", "recovery_fail", s.detail(), epoch);
  fr.trigger("durability-recovery-failure");
  auto& metrics = obs::MetricsRegistry::global();
  if (metrics.enabled()) metrics.counter("store.recovery.failures").add(1);
  return s;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

xbfs::Status recover_store(const DurabilityConfig& cfg,
                           core::XbfsConfig xbfs_cfg, DurableStore* out) {
  Manifest m;
  if (const xbfs::Status s = read_manifest(cfg.dir, &m); !s.ok()) {
    // Missing manifest (Unavailable) is the fresh-dir signal, not a
    // refusal; a garbled one is.
    return s == xbfs::StatusCode::Unavailable ? s : refuse(s);
  }

  graph::Csr base;
  std::uint64_t snap_epoch = 0;
  std::uint64_t snap_fp = 0;
  if (const xbfs::Status s = read_snapshot(cfg.dir + "/" + m.snapshot_file,
                                           &base, &snap_epoch, &snap_fp);
      !s.ok()) {
    return refuse(s);
  }
  if (snap_epoch != m.snapshot_epoch || snap_fp != m.snapshot_fingerprint) {
    return refuse(xbfs::Status::Corruption(
        "recovery: snapshot identity disagrees with manifest (epoch " +
        std::to_string(snap_epoch) + "/" + std::to_string(m.snapshot_epoch) +
        ", fp " + hex(snap_fp) + "/" + hex(m.snapshot_fingerprint) + ")"));
  }

  // Anchor check: the restored overlay-free state must reproduce the
  // fingerprint the snapshot was content-addressed by.
  std::shared_ptr<const dyn::DeltaCsr> restored;
  try {
    restored = std::make_shared<const dyn::DeltaCsr>(
        std::make_shared<const graph::Csr>(std::move(base)), snap_epoch);
  } catch (const std::exception& e) {
    return refuse(xbfs::Status::Corruption(
        std::string("recovery: snapshot base rejected: ") + e.what()));
  }
  if (restored->fingerprint() != snap_fp) {
    return refuse(xbfs::Status::Corruption(
        "recovery: snapshot fingerprint anchor mismatch (computed " +
        hex(restored->fingerprint()) + ", recorded " + hex(snap_fp) + ")"));
  }

  WalReadResult wal;
  if (const xbfs::Status s = read_wal(cfg.dir + "/" + m.wal_file, &wal);
      !s.ok()) {
    return refuse(s);
  }

  auto store =
      std::make_unique<dyn::GraphStore>(std::move(restored), xbfs_cfg);
  dyn::DurabilityStats rs;
  rs.recovered = true;
  rs.torn_tail_detected = wal.torn_tail;
  rs.wal_bytes_truncated = wal.total_bytes - wal.valid_bytes;

  // Replay the tail, verifying the fsync'd fingerprint chain record by
  // record: each record must link to the state before it and reproduce the
  // state after it, or the log and the graph disagree about history.
  for (const WalRecord& rec : wal.records) {
    if (rec.epoch <= store->epoch()) continue;  // covered by the snapshot
    if (rec.epoch != store->epoch() + 1) {
      return refuse(
          xbfs::Status::Corruption(
              "recovery: WAL epoch gap (at " + std::to_string(rec.epoch) +
              ", store at " + std::to_string(store->epoch()) + ")"),
          rec.epoch);
    }
    if (rec.prev_fingerprint != store->fingerprint()) {
      return refuse(
          xbfs::Status::Corruption(
              "recovery: fingerprint chain broken before epoch " +
              std::to_string(rec.epoch) + " (store " +
              hex(store->fingerprint()) + ", record expects " +
              hex(rec.prev_fingerprint) + ")"),
          rec.epoch);
    }
    store->apply_replayed(rec.batch, rec.compacted());
    if (store->fingerprint() != rec.fingerprint) {
      return refuse(
          xbfs::Status::Corruption(
              "recovery: replayed state diverges at epoch " +
              std::to_string(rec.epoch) + " (computed " +
              hex(store->fingerprint()) + ", recorded " +
              hex(rec.fingerprint) + ")"),
          rec.epoch);
    }
    rs.wal_records_replayed += 1;
  }
  rs.recovered_epoch = store->epoch();
  rs.recovered_fingerprint = store->fingerprint();
  rs.last_durable_epoch = rs.recovered_epoch;
  rs.last_durable_fingerprint = rs.recovered_fingerprint;

  // Reopen the segment at the truncation point: the torn tail is cut off
  // durably before any new record can land after it.
  WalWriter wal_writer;
  if (const xbfs::Status s = WalWriter::open_existing(
          cfg.dir + "/" + m.wal_file, wal.valid_bytes, &wal_writer);
      !s.ok()) {
    return refuse(s);
  }
  rs.wal_bytes = wal_writer.bytes();

  obs::FlightRecorder::global().record(
      "store", "recovery_ok",
      wal.torn_tail ? "torn tail truncated" : "clean tail",
      rs.recovered_epoch, rs.recovered_fingerprint, rs.wal_records_replayed);
  auto& metrics = obs::MetricsRegistry::global();
  if (metrics.enabled()) {
    metrics.counter("store.recovery.replayed").add(rs.wal_records_replayed);
    if (wal.torn_tail) metrics.counter("store.recovery.torn_tails").add(1);
  }

  auto mgr = std::make_unique<DurabilityManager>(
      cfg, std::move(wal_writer), snap_epoch, m.snapshot_file, rs);
  store->attach_durability(mgr.get());
  out->store = std::move(store);
  out->durability = std::move(mgr);
  return xbfs::Status::Ok();
}

}  // namespace xbfs::store
