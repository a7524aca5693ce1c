#include "dyn/graph_store.h"

#include <stdexcept>
#include <utility>

#include "hipsim/chk_point.h"

namespace xbfs::dyn {

GraphStore::GraphStore(graph::Csr base, core::XbfsConfig cfg) : cfg_(cfg) {
  if (const xbfs::Status s = cfg_.validate(); !s.ok()) {
    throw std::invalid_argument("GraphStore: " + s.to_string());
  }
  current_ = std::make_shared<const DeltaCsr>(std::move(base));
}

GraphStore::GraphStore(std::shared_ptr<const DeltaCsr> restored,
                       core::XbfsConfig cfg)
    : cfg_(cfg) {
  if (const xbfs::Status s = cfg_.validate(); !s.ok()) {
    throw std::invalid_argument("GraphStore: " + s.to_string());
  }
  if (!restored) {
    throw std::invalid_argument("GraphStore: null restored DeltaCsr");
  }
  current_ = std::move(restored);
}

Snapshot GraphStore::snapshot() const {
  // SchedCheck yield point before the pointer copy: the checker interleaves
  // readers against apply()'s publish, proving every snapshot carries a
  // (graph, epoch, fingerprint) triple from one version, never a mix.
  sim::chk_point("dyn.store.snapshot");
  std::shared_ptr<const DeltaCsr> g;
  {
    std::lock_guard<sim::RankedMutex> lk(mu_);
    g = current_;
  }
  return Snapshot{g, g->epoch(), g->fingerprint()};
}

std::uint64_t GraphStore::epoch() const {
  std::lock_guard<sim::RankedMutex> lk(mu_);
  return current_->epoch();
}

std::uint64_t GraphStore::fingerprint() const {
  std::lock_guard<sim::RankedMutex> lk(mu_);
  return current_->fingerprint();
}

ApplyStats GraphStore::apply(const EdgeBatch& batch) {
  ApplyStats st;
  if (const xbfs::Status s = try_apply(batch, &st); !s.ok()) {
    throw std::runtime_error("GraphStore::apply: " + s.to_string());
  }
  return st;
}

xbfs::Status GraphStore::try_apply(const EdgeBatch& batch, ApplyStats* out) {
  sim::chk_point("dyn.store.apply");
  // One writer at a time; the copy-on-write build happens outside mu_ so
  // snapshot() readers only ever wait for a pointer copy.
  std::lock_guard<sim::RankedMutex> writer(writer_mu_);
  auto next = std::make_shared<DeltaCsr>(*current_);  // clones overlays only
  const ApplyStats st = next->apply(batch);
  bool compacted = false;
  const double density = next->overlay_density();
  bool want_compact = density > cfg_.dyn_compact_threshold;
  if (hook_ != nullptr) {
    // The hook adds the periodic snapshot-spill pressure: snapshots are
    // only taken at compaction points so a recovered store and a
    // never-killed twin share the same base/overlay split.
    want_compact = hook_->want_compact(next->epoch(), density, want_compact);
  }
  if (want_compact) {
    next->compact();
    compacted = true;
  }
  if (hook_ != nullptr) {
    // Durable-then-visible: the WAL record (epoch, post-apply fingerprint,
    // chain link to the previous fingerprint) must be fsync'd before any
    // reader can observe the epoch.  A refused append aborts the apply —
    // the batch never happened, durably or visibly.
    const xbfs::Status s =
        hook_->append(batch, next->epoch(), next->fingerprint(),
                      current_->fingerprint(), compacted);
    if (!s.ok()) return s;
  }
  // Yield between the COW build and publication — the widest window in
  // which concurrent readers must keep seeing the *old* version whole.
  // Legal under the chk_point discipline despite writer_mu_ being held:
  // writer_mu_ only excludes other apply() calls, and concurrent-writer
  // harnesses place at most one writer task (docs/modelcheck.md).
  sim::chk_point("dyn.store.publish");
  Snapshot published;
  {
    std::lock_guard<sim::RankedMutex> lk(mu_);
    current_ = std::move(next);
    stats_.batches_applied += 1;
    stats_.inserts_applied += st.inserts_applied;
    stats_.deletes_applied += st.deletes_applied;
    stats_.noops += st.noops;
    if (compacted) stats_.compactions += 1;
    published = Snapshot{current_, current_->epoch(), current_->fingerprint()};
  }
  if (hook_ != nullptr) hook_->published(published, compacted);
  if (out != nullptr) *out = st;
  return xbfs::Status::Ok();
}

ApplyStats GraphStore::apply_replayed(const EdgeBatch& batch, bool compacted) {
  std::lock_guard<sim::RankedMutex> writer(writer_mu_);
  auto next = std::make_shared<DeltaCsr>(*current_);
  const ApplyStats st = next->apply(batch);
  if (compacted) next->compact();
  {
    std::lock_guard<sim::RankedMutex> lk(mu_);
    current_ = std::move(next);
    stats_.batches_applied += 1;
    stats_.inserts_applied += st.inserts_applied;
    stats_.deletes_applied += st.deletes_applied;
    stats_.noops += st.noops;
    if (compacted) stats_.compactions += 1;
  }
  return st;
}

StoreStats GraphStore::stats() const {
  std::lock_guard<sim::RankedMutex> lk(mu_);
  return stats_;
}

}  // namespace xbfs::dyn
