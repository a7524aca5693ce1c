#include "hipsim/mem_model.h"

#include <bit>
#include <cassert>

namespace xbfs::sim {

namespace {
/// Largest power of two <= v (v must be >= 1).
std::uint64_t floor_pow2(std::uint64_t v) {
  assert(v >= 1);
  return std::uint64_t{1} << (63 - std::countl_zero(v));
}
}  // namespace

CacheShard::CacheShard(std::uint64_t capacity_bytes, unsigned line_bytes,
                       unsigned ways)
    : ways_(ways) {
  const std::uint64_t lines = capacity_bytes / line_bytes;
  const std::uint64_t sets = lines / ways;
  num_sets_ = static_cast<unsigned>(floor_pow2(sets > 0 ? sets : 1));
  ways_storage_.assign(static_cast<std::size_t>(num_sets_) * ways_, Way{});
}

unsigned CacheShard::set_of(std::uint64_t line) const {
  // Mix the line index so that strided access patterns spread over sets.
  const std::uint64_t mixed = line * 0x9E3779B97F4A7C15ull;
  return static_cast<unsigned>((mixed >> 17) & (num_sets_ - 1));
}

bool CacheShard::contains(std::uint64_t line) const {
  const Way* row = &ways_storage_[std::size_t{set_of(line)} * ways_];
  for (unsigned w = 0; w < ways_; ++w) {
    if (row[w].tag == line) return true;
  }
  return false;
}

CacheShard::AccessResult CacheShard::access(std::uint64_t line,
                                            bool is_write) {
  Way* row = &ways_storage_[std::size_t{set_of(line)} * ways_];
  ++stamp_;

  unsigned victim = 0;
  std::uint64_t oldest = ~0ull;
  for (unsigned w = 0; w < ways_; ++w) {
    if (row[w].tag == line) {
      row[w].stamp = stamp_;
      row[w].dirty = row[w].dirty || is_write;
      return {.hit = true, .writeback = false};
    }
    if (row[w].stamp < oldest) {
      oldest = row[w].stamp;
      victim = w;
    }
  }
  const bool writeback = row[victim].tag != kInvalidTag && row[victim].dirty;
  row[victim].tag = line;
  row[victim].stamp = stamp_;
  row[victim].dirty = is_write;
  return {.hit = false, .writeback = writeback};
}

void CacheShard::invalidate_all() {
  for (Way& w : ways_storage_) w = Way{};
  stamp_ = 0;
}

L2Model::L2Model(const DeviceProfile& profile, unsigned n_shards)
    : line_bytes_(profile.l2_line_bytes) {
  n_shards = static_cast<unsigned>(floor_pow2(n_shards > 0 ? n_shards : 1));
  const std::uint64_t shard_bytes = profile.l2_bytes / n_shards;
  shards_.reserve(n_shards);
  for (unsigned i = 0; i < n_shards; ++i) {
    shards_.push_back(std::make_unique<CacheShard>(
        shard_bytes, profile.l2_line_bytes, profile.l2_ways));
  }
  locks_ = std::make_unique<Spinlock[]>(n_shards);
}

void L2Model::access(std::uint64_t addr, unsigned bytes, bool is_write,
                     KernelCounters& c) {
  const std::uint64_t first_line = addr / line_bytes_;
  const std::uint64_t last_line = (addr + (bytes ? bytes - 1 : 0)) / line_bytes_;
  const unsigned mask = n_shards() - 1;
  const unsigned nlines = static_cast<unsigned>(last_line - first_line + 1);
  const unsigned payload_per_line = bytes / nlines;
  for (std::uint64_t line = first_line; line <= last_line; ++line) {
    const unsigned shard = static_cast<unsigned>(line & mask);
    locks_[shard].lock();
    const CacheShard::AccessResult r = shards_[shard]->access(line, is_write);
    locks_[shard].unlock();
    if (r.hit) {
      c.l2_hits += 1;
      // Service bandwidth is charged per payload, not per line: consecutive
      // lanes of a wavefront hitting one line coalesce into one transaction
      // on real hardware, and the per-lane accounting here sums to exactly
      // the coalesced payload.
      c.l2_hit_bytes += payload_per_line;
    } else {
      c.l2_misses += 1;
      c.fetch_bytes += line_bytes_;
    }
    if (r.writeback) c.writeback_bytes += line_bytes_;
  }
}

void L2Model::stream(std::uint64_t addr, unsigned bytes, bool is_write,
                     KernelCounters& c, std::uint64_t* last_line) {
  if (is_write) {
    c.writeback_bytes += bytes;
    return;
  }
  const std::uint64_t first = addr / line_bytes_;
  const std::uint64_t last = (addr + (bytes ? bytes - 1 : 0)) / line_bytes_;
  const unsigned mask = n_shards() - 1;
  const unsigned nlines = static_cast<unsigned>(last - first + 1);
  for (std::uint64_t line = first; line <= last; ++line) {
    bool hit = last_line != nullptr && line == *last_line;
    if (!hit) {
      const unsigned shard = static_cast<unsigned>(line & mask);
      locks_[shard].lock();
      hit = shards_[shard]->contains(line);
      locks_[shard].unlock();
    }
    if (hit) {
      c.l2_hits += 1;
      c.l2_hit_bytes += bytes / nlines;
    } else {
      c.l2_misses += 1;
      c.fetch_bytes += line_bytes_;
    }
  }
  if (last_line != nullptr) *last_line = last;
}

void L2Model::invalidate_all() {
  for (auto& s : shards_) s->invalidate_all();
}

}  // namespace xbfs::sim
