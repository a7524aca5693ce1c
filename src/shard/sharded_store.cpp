#include "shard/sharded_store.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace xbfs::shard {

using graph::eid_t;
using graph::vid_t;

xbfs::Status ShardStoreConfig::validate() const {
  if (shards < 1) return xbfs::Status::Invalid("shards must be >= 1");
  if (replicas < 1) return xbfs::Status::Invalid("replicas must be >= 1");
  if (block_threads < 1) {
    return xbfs::Status::Invalid("block_threads must be >= 1");
  }
  return xbfs::Status::Ok();
}

std::uint64_t ShardStoreConfig::resolved_budget() const {
  if (device_budget_bytes != 0) return device_budget_bytes;
  if (const char* env = std::getenv("XBFS_SHARD_BUDGET_MB");
      env != nullptr && *env != '\0') {
    const long long mb = std::atoll(env);
    if (mb > 0) return static_cast<std::uint64_t>(mb) * 1024 * 1024;
  }
  return profile.device_mem_bytes;
}

namespace {

/// Device bytes one replica of shard `s` allocates under `part`: the local
/// CSR slice plus the sweep working set.  Must mirror the constructor's
/// alloc calls exactly — this is what min_shards guidance is derived from.
std::uint64_t shard_bytes(const graph::Csr& g, const dist::Partition1D& part,
                          unsigned s) {
  const vid_t rows = part.owned(s);
  const eid_t edges = g.offsets()[part.end(s)] - g.offsets()[part.begin(s)];
  const std::uint64_t words =
      (static_cast<std::uint64_t>(g.num_vertices()) + 63) / 64;
  std::uint64_t b = 0;
  b += (static_cast<std::uint64_t>(rows) + 1) * sizeof(eid_t);    // offsets
  b += std::max<std::uint64_t>(1, edges) * sizeof(vid_t);         // cols
  b += std::max<std::uint64_t>(1, rows) * sizeof(std::uint32_t);  // status
  b += 2 * words * sizeof(std::uint64_t);                         // bitmaps
  b += 4 * sizeof(std::uint64_t);                                 // claims
  return b;
}

}  // namespace

std::uint64_t ShardedStore::estimate_replica_bytes(const graph::Csr& g,
                                                   unsigned shards) {
  const dist::Partition1D part(g.num_vertices(), std::max(1u, shards));
  std::uint64_t worst = 0;
  for (unsigned s = 0; s < part.parts(); ++s) {
    worst = std::max(worst, shard_bytes(g, part, s));
  }
  return worst;
}

ShardedStore::ShardedStore(const graph::Csr& g, ShardStoreConfig cfg)
    : g_(&g), cfg_(cfg), layout_(g.num_vertices(), std::max(1u, cfg.shards)) {
  if (const xbfs::Status st = cfg_.validate(); !st.ok()) {
    throw std::invalid_argument("ShardStoreConfig: " + st.to_string());
  }
  const std::uint64_t budget = cfg_.resolved_budget();
  const std::size_t words =
      (static_cast<std::size_t>(g.num_vertices()) + 63) / 64;

  replicas_.reserve(num_slots());
  for (unsigned s = 0; s < cfg_.shards; ++s) {
    const auto rows = std::make_shared<const dist::LocalRows>(
        dist::extract_local_rows(g, layout_.partition(), s));
    for (unsigned r = 0; r < cfg_.replicas; ++r) {
      auto rep = std::make_unique<Replica>();
      rep->rows = rows;
      rep->device =
          std::make_unique<sim::Device>(cfg_.profile, cfg_.device_options);
      rep->device->warmup();
      rep->device->set_trace_label("shard" + std::to_string(s) + "r" +
                                   std::to_string(r));
      sim::Device& dev = *rep->device;
      const std::string tag =
          "shard" + std::to_string(s) + "r" + std::to_string(r);
      rep->offsets = dev.alloc<eid_t>(rows->offsets.size(), tag + ".offsets");
      rep->offsets.h_copy_from(rows->offsets.data(), rows->offsets.size());
      rep->cols = dev.alloc<vid_t>(std::max<std::size_t>(1, rows->cols.size()),
                                   tag + ".cols");
      if (!rows->cols.empty()) {
        rep->cols.h_copy_from(rows->cols.data(), rows->cols.size());
      }
      // Modelled upload of the slice (cols buffer is padded to 1 element).
      dev.memcpy_h2d(rows->offsets.size() * sizeof(eid_t) +
                     rows->cols.size() * sizeof(vid_t));
      rep->offsets.mark_device_synced();
      rep->cols.mark_device_synced();
      rep->status = dev.alloc<std::uint32_t>(
          std::max<vid_t>(1, rows->num_rows), tag + ".status");
      rep->cur_bm = dev.alloc<std::uint64_t>(words, tag + ".cur_bm");
      rep->next_bm = dev.alloc<std::uint64_t>(words, tag + ".next_bm");
      rep->claims = dev.alloc<std::uint64_t>(4, tag + ".claims");

      const std::uint64_t allocated = dev.allocated_bytes();
      max_shard_bytes_ = std::max(max_shard_bytes_, allocated);
      if (allocated > budget) {
        // Find the smallest shard count whose worst slice fits, so the
        // error tells the operator what to re-shard to.
        unsigned min_shards = cfg_.shards;
        for (unsigned k = cfg_.shards + 1; k <= 4096; k *= 2) {
          if (estimate_replica_bytes(g, k) <= budget) {
            min_shards = k;
            break;
          }
        }
        throw std::invalid_argument(
            "ShardedStore: shard " + std::to_string(s) + " needs " +
            std::to_string(allocated) + " bytes but the device budget is " +
            std::to_string(budget) + "; re-shard to >= " +
            std::to_string(min_shards) + " shards");
      }
      replicas_.push_back(std::move(rep));
    }
  }
}

ShardedStore::~ShardedStore() = default;

void ShardedStore::kill_replica(unsigned s, unsigned r) {
  replica(s, r).dead.store(true, std::memory_order_release);
}

void ShardedStore::revive_replica(unsigned s, unsigned r) {
  replica(s, r).dead.store(false, std::memory_order_release);
}

unsigned ShardedStore::healthy_replicas(unsigned s) const {
  unsigned healthy = 0;
  for (unsigned r = 0; r < cfg_.replicas; ++r) {
    if (alive(s, r)) ++healthy;
  }
  return healthy;
}

ShardMemoryReport ShardedStore::memory_report() const {
  ShardMemoryReport rep;
  rep.budget_bytes = cfg_.resolved_budget();
  rep.single_device_bytes = estimate_replica_bytes(*g_, 1);
  rep.max_shard_bytes = max_shard_bytes_;
  rep.oversubscription =
      rep.budget_bytes == 0
          ? 0.0
          : static_cast<double>(rep.single_device_bytes) /
                static_cast<double>(rep.budget_bytes);
  rep.fits = rep.max_shard_bytes <= rep.budget_bytes;
  rep.min_shards = 1;
  for (unsigned k = 1; k <= 4096; k *= 2) {
    rep.min_shards = k;
    if (estimate_replica_bytes(*g_, k) <= rep.budget_bytes) break;
  }
  return rep;
}

}  // namespace xbfs::shard
