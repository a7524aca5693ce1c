// Sharded LRU result cache keyed by (graph fingerprint, algorithm kind,
// parameter hash, source).
//
// Serving workloads are Zipf-skewed — a few hot sources absorb most
// queries — so a small cache of immutable payload vectors turns the hot
// tail into refcount bumps.  Keys carry the graph's structural fingerprint
// (graph::Csr::fingerprint) so a cache shared across graph reloads can
// never serve a stale topology's result, plus the algo kind and the
// AlgoParams::hash() salt so distinct algorithms — or the same algorithm
// under different parameters (SSSP weight seed, k-core k) — can never
// collide on one entry.  Whole-graph kinds (CC, k-core, SCC) key source 0.
// Shards (each its own mutex + LRU list) keep submit-path lookups from
// serializing behind one lock.
// Dynamic graphs (src/dyn) add epoch awareness: each update batch bumps
// the graph fingerprint (Csr::fingerprint mixes the epoch), so entries
// keyed under the previous fingerprint become unreachable garbage rather
// than stale hits.  epoch_bump() sweeps them eagerly and counts the purge;
// get() additionally reaps the prior epoch's twin of each missed key so a
// churning hot set can't pin dead entries until LRU pressure finds them.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/algorithm_engine.h"
#include "serve/query.h"

namespace xbfs::serve {

/// The parameter-hash salt BFS entries are keyed under (BFS ignores
/// AlgoParams, so submit paths normalize them to the default before
/// hashing).
inline std::uint64_t bfs_params_hash() {
  static const std::uint64_t h = core::AlgoParams{}.hash();
  return h;
}

class ResultCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t inserts = 0;
    std::size_t entries = 0;
    /// Dynamic-graph invalidation (zero on static graphs): epoch_bump()
    /// calls, entries purged by those sweeps, and prior-epoch twins reaped
    /// lazily by get() misses — each one a stale hit that a fingerprint-less
    /// cache would have served.
    std::uint64_t epoch_bumps = 0;
    std::uint64_t purged_stale = 0;
    std::uint64_t stale_hits_avoided = 0;
    double hit_rate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };

  /// `capacity` total entries split evenly across `shards` (each shard gets
  /// at least one slot).  capacity == 0 constructs a disabled cache: every
  /// get() misses, put() is a no-op.
  explicit ResultCache(std::size_t capacity, unsigned shards = 8);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  bool enabled() const { return shard_capacity_ != 0; }

  /// Lookup; bumps the entry to most-recently-used and counts hit/miss.
  /// A returned falsy payload (no vector set) is a miss.
  CachedResult get(std::uint64_t graph_fp, core::AlgoKind algo,
                   std::uint64_t params_hash, graph::vid_t source);
  /// Insert/overwrite; evicts the shard's least-recently-used entry when
  /// the shard is full.
  void put(std::uint64_t graph_fp, core::AlgoKind algo,
           std::uint64_t params_hash, graph::vid_t source, CachedResult v);

  /// Register the serving fingerprint without counting a bump — called once
  /// at dynamic-server startup so the first epoch_bump() has a "previous"
  /// epoch to retire.  No-op sweep-wise.
  void prime(std::uint64_t graph_fp);
  /// The graph moved to a new epoch/fingerprint: sweep every entry keyed
  /// under any other fingerprint (their topology can no longer be served)
  /// and remember the retired fingerprint for lazy reaping in get().
  /// Returns the number of entries purged.
  std::size_t epoch_bump(std::uint64_t new_fp);

  Stats stats() const;
  std::size_t size() const;
  void clear();

 private:
  struct Key {
    std::uint64_t fp;
    std::uint64_t phash;
    graph::vid_t src;
    core::AlgoKind algo;
    bool operator==(const Key& o) const {
      return fp == o.fp && phash == o.phash && src == o.src && algo == o.algo;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::uint64_t h = k.fp ^ (static_cast<std::uint64_t>(k.src) *
                                0x9E3779B97F4A7C15ull);
      h ^= k.phash + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
      h ^= static_cast<std::uint64_t>(k.algo) * 0xff51afd7ed558ccdull;
      h ^= h >> 33;
      h *= 0xff51afd7ed558ccdull;
      h ^= h >> 33;
      return static_cast<std::size_t>(h);
    }
  };
  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used.
    std::list<std::pair<Key, CachedResult>> lru;
    std::unordered_map<Key, std::list<std::pair<Key, CachedResult>>::iterator,
                       KeyHash>
        map;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t inserts = 0;
  };

  Shard& shard_of(const Key& k) {
    return *shards_[KeyHash{}(k) % shards_.size()];
  }

  std::size_t shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Epoch bookkeeping (dynamic graphs only; untouched on static servers).
  std::atomic<bool> primed_{false};
  std::atomic<std::uint64_t> current_fp_{0};
  std::atomic<std::uint64_t> prev_fp_{0};
  std::atomic<std::uint64_t> epoch_bumps_{0};
  std::atomic<std::uint64_t> purged_stale_{0};
  std::atomic<std::uint64_t> stale_hits_avoided_{0};
};

}  // namespace xbfs::serve
