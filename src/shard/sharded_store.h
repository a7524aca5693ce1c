// ShardedStore: one CSR resident across a group of simulated GCDs, with a
// replica group per shard — the storage tier behind the scatter-gather
// router (shard/router.h).
//
// Each (shard, replica) pair owns a full simulated device holding the
// shard's rows (dist::extract_local_rows), a status slice, and the global
// frontier bitmaps the distributed sweep exchanges.  Device residency is
// budget-checked: a replica whose allocation exceeds the configured
// modelled memory budget fails construction with the minimum shard count
// that would fit — this is the mechanism that makes "a graph 2x one GCD's
// memory" a hard constraint the bench can demonstrate rather than a slide
// claim.
//
// Replicas exist for availability, not throughput: the router routes each
// shard's work to any healthy replica (serve::HealthTracker breaker per
// slot), kill_replica() models a lost GCD for chaos tests, and a shard
// whose whole group is down degrades queries to partial results instead of
// failing them.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/status_code.h"
#include "dist/interconnect.h"
#include "dist/partition.h"
#include "graph/csr.h"
#include "hipsim/buffer.h"
#include "hipsim/device.h"
#include "shard/layout.h"

namespace xbfs::shard {

struct ShardStoreConfig {
  unsigned shards = 4;
  unsigned replicas = 1;  ///< replica group size per shard
  /// Modelled device-memory budget per replica, bytes.  0 = take
  /// XBFS_SHARD_BUDGET_MB from the environment, falling back to the
  /// profile's device_mem_bytes (64 GB for an MI250X GCD).
  std::uint64_t device_budget_bytes = 0;
  unsigned block_threads = 256;
  dist::FabricModel fabric = dist::FabricModel::frontier();
  sim::DeviceProfile profile = sim::DeviceProfile::mi250x_gcd();
  sim::SimOptions device_options = {};

  xbfs::Status validate() const;
  /// The budget after env/profile resolution.
  std::uint64_t resolved_budget() const;
};

/// How the graph's device residency relates to the budget; the serving
/// bench's oversubscription record comes from here.
struct ShardMemoryReport {
  std::uint64_t budget_bytes = 0;
  /// What a single device would have to allocate to hold the whole graph
  /// (shards = 1 residency: CSR + status + bitmaps).
  std::uint64_t single_device_bytes = 0;
  std::uint64_t max_shard_bytes = 0;  ///< largest replica footprint built
  /// single_device_bytes / budget: >= 2 means the served graph is at least
  /// twice one GCD's modelled memory.
  double oversubscription = 0.0;
  unsigned min_shards = 1;  ///< smallest shard count whose slices all fit
  bool fits = false;        ///< max_shard_bytes <= budget_bytes
};

class ShardedStore {
 public:
  /// One shard replica: a full simulated device plus the sweep's working
  /// set, as ShardSweep uses it (status is local-row indexed, bitmaps
  /// are global).  Claims hold two words per level parity, from word
  /// 2 * (level & 1): the first sums the degrees of this replica's claims
  /// in the level, and the cleaned broadcast overwrites both with the
  /// level's global claimed degree and count.
  struct Replica {
    std::unique_ptr<sim::Device> device;
    std::shared_ptr<const dist::LocalRows> rows;  ///< shared across replicas
    sim::DeviceBuffer<graph::eid_t> offsets;
    sim::DeviceBuffer<graph::vid_t> cols;
    sim::DeviceBuffer<std::uint32_t> status;
    sim::DeviceBuffer<std::uint64_t> cur_bm;
    sim::DeviceBuffer<std::uint64_t> next_bm;
    sim::DeviceBuffer<std::uint64_t> claims;
    /// Sweeps serialize per replica (the device's modelled clocks are not
    /// thread-safe); the router locks each query's chosen replicas in slot
    /// order before running the distributed sweep.
    std::mutex mu;
    std::atomic<bool> dead{false};
  };

  /// Builds every replica's device residency; throws std::invalid_argument
  /// on a bad config or when any replica exceeds the memory budget (the
  /// message names the minimum shard count that fits).  `g` must outlive
  /// the store.
  ShardedStore(const graph::Csr& g, ShardStoreConfig cfg);
  ~ShardedStore();

  ShardedStore(const ShardedStore&) = delete;
  ShardedStore& operator=(const ShardedStore&) = delete;

  const graph::Csr& graph() const { return *g_; }
  const ShardLayout& layout() const { return layout_; }
  const ShardStoreConfig& config() const { return cfg_; }
  unsigned shards() const { return cfg_.shards; }
  unsigned replicas() const { return cfg_.replicas; }
  unsigned num_slots() const { return cfg_.shards * cfg_.replicas; }

  /// Flat slot id of (shard, replica) — the HealthTracker/SLO lane index.
  unsigned slot(unsigned s, unsigned r) const { return s * cfg_.replicas + r; }
  Replica& replica(unsigned s, unsigned r) { return *replicas_[slot(s, r)]; }
  const Replica& replica(unsigned s, unsigned r) const {
    return *replicas_[slot(s, r)];
  }

  bool alive(unsigned s, unsigned r) const {
    return !replica(s, r).dead.load(std::memory_order_acquire);
  }
  /// Chaos hooks: a killed replica stays allocated but is never planned
  /// into a sweep until revived (modelled GCD loss, not process death).
  void kill_replica(unsigned s, unsigned r);
  void revive_replica(unsigned s, unsigned r);
  unsigned healthy_replicas(unsigned s) const;

  ShardMemoryReport memory_report() const;

  /// Cache-key salt: results served by this store are cached under
  /// graph::mix_fingerprint(csr_fingerprint, fingerprint_salt()).
  std::uint64_t fingerprint_salt() const { return layout_.layout_hash(); }

  /// Worst-shard device bytes for `shards`-way residency of `g` — what one
  /// replica would allocate — without building anything.  The bench sizes
  /// its budget from this; the constructor uses it for min_shards guidance.
  static std::uint64_t estimate_replica_bytes(const graph::Csr& g,
                                              unsigned shards);

 private:
  const graph::Csr* g_;
  ShardStoreConfig cfg_;
  ShardLayout layout_;
  std::vector<std::unique_ptr<Replica>> replicas_;  ///< [shard][replica] flat
  std::uint64_t max_shard_bytes_ = 0;
};

}  // namespace xbfs::shard
