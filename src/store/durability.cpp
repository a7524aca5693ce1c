#include "store/durability.h"

#include <chrono>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "store/manifest.h"
#include "store/recovery.h"
#include "store/snapshot_file.h"

namespace xbfs::store {

namespace {

double elapsed_us(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::string wal_filename(std::uint64_t epoch) {
  return "wal-" + std::to_string(epoch) + ".xlog";
}

}  // namespace

DurabilityManager::DurabilityManager(DurabilityConfig cfg, WalWriter wal,
                                     std::uint64_t last_spill_epoch,
                                     std::string snapshot_file,
                                     dyn::DurabilityStats seed_stats)
    : cfg_(std::move(cfg)),
      wal_(std::move(wal)),
      last_spill_epoch_(last_spill_epoch),
      snapshot_file_(std::move(snapshot_file)),
      stats_(seed_stats) {}

bool DurabilityManager::want_compact(std::uint64_t next_epoch,
                                     double /*density*/, bool density_wants) {
  // Periodic compaction pressure: snapshots are only taken at compaction
  // points, so this is the "snapshot every N epochs" policy.
  return density_wants ||
         (cfg_.snapshot_every != 0 &&
          next_epoch >= last_spill_epoch_ + cfg_.snapshot_every);
}

xbfs::Status DurabilityManager::append(const dyn::EdgeBatch& batch,
                                       std::uint64_t epoch,
                                       std::uint64_t fingerprint,
                                       std::uint64_t prev_fingerprint,
                                       bool compacted) {
  WalRecord rec;
  rec.epoch = epoch;
  rec.fingerprint = fingerprint;
  rec.prev_fingerprint = prev_fingerprint;
  rec.flags = compacted ? WalRecord::kFlagCompacted : 0;
  rec.batch = batch;
  const xbfs::Status s = wal_.append(rec);
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (s.ok()) {
      stats_.wal_appends += 1;
      stats_.fsyncs += 1;
      stats_.wal_bytes = wal_.bytes();
      stats_.last_durable_epoch = epoch;
      stats_.last_durable_fingerprint = fingerprint;
    } else if (s.detail().rfind("fsync-fail", 0) == 0) {
      stats_.fsync_failures += 1;
    } else {
      stats_.wal_append_failures += 1;
    }
  }
  if (!s.ok()) {
    obs::FlightRecorder::global().record("store", "wal_append_fail",
                                         s.detail(), epoch);
    auto& metrics = obs::MetricsRegistry::global();
    if (metrics.enabled()) metrics.counter("store.wal.failures").add(1);
  }
  return s;
}

void DurabilityManager::published(const dyn::Snapshot& snap, bool compacted) {
  if (compacted) spill_and_rotate(snap);
}

void DurabilityManager::spill_and_rotate(const dyn::Snapshot& snap) {
  auto& metrics = obs::MetricsRegistry::global();
  // 1. Spill the freshly-compacted base, content-addressed + atomic.
  const auto t0 = std::chrono::steady_clock::now();
  std::string snap_name;
  xbfs::Status s = write_snapshot(cfg_.dir, snap.graph->base(), snap.epoch,
                                  snap.fingerprint, &snap_name);
  if (metrics.enabled()) {
    metrics.histogram("store.snapshot.spill_us").observe(elapsed_us(t0));
  }
  if (!s.ok()) {
    // Durability is unharmed — the old (snapshot, WAL) pair still covers
    // everything; the spill retries at the next compaction point.
    obs::FlightRecorder::global().record("store", "snapshot_spill_fail",
                                         s.detail(), snap.epoch);
    if (metrics.enabled()) metrics.counter("store.snapshot.failures").add(1);
    return;
  }
  // 2. Fresh WAL segment; appends only move there after the manifest names
  //    it, so no record can land where recovery won't look.
  const std::string new_wal = wal_filename(snap.epoch);
  WalWriter next;
  s = WalWriter::create(cfg_.dir + "/" + new_wal, &next);
  if (s.ok()) {
    // 3. Atomic manifest switch to the new pair.
    Manifest m;
    m.snapshot_file = snap_name;
    m.snapshot_epoch = snap.epoch;
    m.snapshot_fingerprint = snap.fingerprint;
    m.wal_file = new_wal;
    s = write_manifest(cfg_.dir, m);
  }
  if (!s.ok()) {
    obs::FlightRecorder::global().record("store", "wal_rotate_fail",
                                         s.detail(), snap.epoch);
    if (metrics.enabled()) metrics.counter("store.snapshot.failures").add(1);
    next.close();
    remove_file(cfg_.dir + "/" + new_wal);
    return;  // keep appending to the old segment
  }
  // 4. The new pair is durably named; the old pair is garbage.
  const std::string old_wal = wal_.path();
  const std::string old_snap = snapshot_file_;
  wal_.close();
  wal_ = std::move(next);
  remove_file(old_wal);
  if (!old_snap.empty() && old_snap != snap_name) {
    remove_file(cfg_.dir + "/" + old_snap);
  }
  snapshot_file_ = snap_name;
  last_spill_epoch_ = snap.epoch;
  obs::FlightRecorder::global().record("store", "snapshot_spill", snap_name,
                                       snap.epoch, snap.fingerprint);
  std::lock_guard<std::mutex> lk(mu_);
  stats_.snapshots_spilled += 1;
  stats_.wal_rotations += 1;
  stats_.wal_bytes = wal_.bytes();
}

dyn::DurabilityStats DurabilityManager::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

xbfs::Status open_durable(const DurabilityConfig& cfg, graph::Csr base,
                          core::XbfsConfig xbfs_cfg,
                          std::size_t /*log_capacity: unused*/,
                          DurableStore* out) {
  if (cfg.dir.empty()) {
    return xbfs::Status::Invalid("open_durable: empty storage dir");
  }
  if (const xbfs::Status s = ensure_dir(cfg.dir); !s.ok()) return s;
  if (file_exists(cfg.dir + "/" + kManifestName)) {
    return recover_store(cfg, xbfs_cfg, out);
  }

  // Fresh initialization: epoch-0 snapshot + empty WAL + manifest, so a
  // crash at any later point always finds a complete pair to recover.
  auto store = std::make_unique<dyn::GraphStore>(std::move(base), xbfs_cfg);
  const dyn::Snapshot snap = store->snapshot();
  std::string snap_name;
  if (const xbfs::Status s =
          write_snapshot(cfg.dir, snap.graph->base(), snap.epoch,
                         snap.fingerprint, &snap_name);
      !s.ok()) {
    return s;
  }
  const std::string wal_name = wal_filename(snap.epoch);
  WalWriter wal;
  if (const xbfs::Status s = WalWriter::create(cfg.dir + "/" + wal_name, &wal);
      !s.ok()) {
    return s;
  }
  Manifest m;
  m.snapshot_file = snap_name;
  m.snapshot_epoch = snap.epoch;
  m.snapshot_fingerprint = snap.fingerprint;
  m.wal_file = wal_name;
  if (const xbfs::Status s = write_manifest(cfg.dir, m); !s.ok()) return s;

  dyn::DurabilityStats seed;
  seed.snapshots_spilled = 1;
  seed.last_durable_epoch = snap.epoch;
  seed.last_durable_fingerprint = snap.fingerprint;
  auto mgr = std::make_unique<DurabilityManager>(
      cfg, std::move(wal), snap.epoch, snap_name, seed);
  store->attach_durability(mgr.get());
  out->store = std::move(store);
  out->durability = std::move(mgr);
  return xbfs::Status::Ok();
}

}  // namespace xbfs::store
