// DeltaCsr: an immutable base CSR plus per-vertex insert/delete overlays —
// the storage format of the dynamic-graph subsystem (docs/dynamic.md).
//
// The base graph::Csr is shared (shared_ptr) and never mutated; updates
// land in two small per-vertex side structures:
//
//   extras[v]     inserted neighbors of v not present in the base
//   tombstones[v] base neighbors of v that have been deleted
//
// apply(EdgeBatch) is undirected (both directed entries change together,
// keeping the CSR symmetric), treats self loops / duplicate inserts /
// absent deletes as counted no-ops, and revives a tombstoned base edge on
// re-insert instead of double-storing it.  Every apply() bumps the epoch,
// which fingerprint() mixes into the structural hash (the Csr::fingerprint
// epoch-mixing contract), so serving-cache keys invalidate on every batch.
//
// When the overlay grows past XbfsConfig::dyn_compact_threshold the owner
// (dyn::GraphStore) calls compact(), which materializes a fresh flat base
// and bumps base_version() — device mirrors use that to detect that their
// uploaded base arrays (and tombstone indices into them) are stale.
//
// Precondition: the base adjacency lists are sorted and deduplicated
// (graph::build_csr's defaults); the constructor validates and throws
// std::invalid_argument otherwise, because edge membership and the device
// tombstone indices both rely on binary search.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "dyn/edge_batch.h"
#include "graph/csr.h"

namespace xbfs::dyn {

class DeltaCsr {
 public:
  using Overlay = std::unordered_map<graph::vid_t, std::vector<graph::vid_t>>;

  DeltaCsr() : DeltaCsr(std::make_shared<const graph::Csr>()) {}
  explicit DeltaCsr(graph::Csr base)
      : DeltaCsr(std::make_shared<const graph::Csr>(std::move(base))) {}
  explicit DeltaCsr(std::shared_ptr<const graph::Csr> base);
  /// Recovery constructor (src/store/recovery): resume a freshly-compacted
  /// state — base = the spilled snapshot, overlays empty — at the epoch the
  /// snapshot was taken, so replaying the WAL tail reproduces the exact
  /// epoch/fingerprint sequence the pre-crash store published.
  DeltaCsr(std::shared_ptr<const graph::Csr> base, std::uint64_t epoch)
      : DeltaCsr(std::move(base)) {
    epoch_ = epoch;
  }

  const graph::Csr& base() const { return *base_; }
  const std::shared_ptr<const graph::Csr>& base_ptr() const { return base_; }

  graph::vid_t num_vertices() const { return base_->num_vertices(); }
  /// Live directed adjacency entries: base - tombstones + extras.
  graph::eid_t num_edges() const {
    return base_->num_edges() - tomb_entries_ + extra_entries_;
  }

  /// Bumped by every apply() call (no-op batches included — the cache
  /// contract is "any applied batch changes the fingerprint").
  std::uint64_t epoch() const { return epoch_; }
  /// Bumped by compact(); device mirrors of the base re-upload on change.
  std::uint64_t base_version() const { return base_version_; }

  ApplyStats apply(const EdgeBatch& batch);

  bool has_edge(graph::vid_t u, graph::vid_t v) const;
  graph::vid_t degree(graph::vid_t v) const;

  /// Visit the live neighbors of v (base-minus-tombstones, then extras).
  template <typename F>
  void for_each_neighbor(graph::vid_t v, F&& f) const {
    for (const graph::vid_t w : base_->neighbors(v)) {
      if (!is_tombstoned(v, w)) f(w);
    }
    if (const std::vector<graph::vid_t>* ex = find(extras_, v)) {
      for (const graph::vid_t w : *ex) f(w);
    }
  }
  std::vector<graph::vid_t> neighbors_sorted(graph::vid_t v) const;

  /// (extras + tombstones) / base |E| — the compaction trigger metric.
  double overlay_density() const;
  /// Rebuild a flat base from the live edge set; clears the overlays,
  /// preserves the logical graph and the epoch, bumps base_version().
  void compact();
  /// Flatten to a standalone sorted/deduped Csr (what compact() installs).
  graph::Csr materialize() const;

  /// base().fingerprint() extended over the overlay content, with the
  /// epoch mixed in last — same contract as Csr::fingerprint(epoch).
  std::uint64_t fingerprint() const;

  // --- device-sync accessors (dyn::DeviceMirror) ----------------------------
  const Overlay& extras() const { return extras_; }
  const Overlay& tombstones() const { return tombstones_; }
  std::uint64_t extra_entries() const { return extra_entries_; }
  std::uint64_t tombstone_entries() const { return tomb_entries_; }
  /// Index into base().cols() of the directed base entry u -> v; the entry
  /// must exist in the base (tombstoned or not).
  graph::eid_t base_edge_index(graph::vid_t u, graph::vid_t v) const;

 private:
  static const std::vector<graph::vid_t>* find(const Overlay& o,
                                               graph::vid_t v) {
    const auto it = o.find(v);
    return it == o.end() ? nullptr : &it->second;
  }
  static bool contains(const Overlay& o, graph::vid_t v, graph::vid_t w);
  /// Insert w into o[v] keeping the vector sorted; false if present.
  static bool sorted_insert(Overlay& o, graph::vid_t v, graph::vid_t w);
  /// Remove w from o[v]; false if absent.  Erases empty vectors.
  static bool sorted_erase(Overlay& o, graph::vid_t v, graph::vid_t w);

  bool base_has(graph::vid_t u, graph::vid_t v) const;
  bool is_tombstoned(graph::vid_t u, graph::vid_t v) const {
    return contains(tombstones_, u, v);
  }
  /// One directed half of an op; returns whether the graph changed.
  bool directed_insert(graph::vid_t u, graph::vid_t v);
  bool directed_erase(graph::vid_t u, graph::vid_t v);

  std::shared_ptr<const graph::Csr> base_;
  Overlay extras_;
  Overlay tombstones_;
  std::uint64_t extra_entries_ = 0;  ///< directed entries across extras_
  std::uint64_t tomb_entries_ = 0;   ///< directed entries across tombstones_
  std::uint64_t epoch_ = 0;
  std::uint64_t base_version_ = 0;
};

}  // namespace xbfs::dyn
