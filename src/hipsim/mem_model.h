// Device-memory traffic model: a sharded, set-associative, write-back LRU
// cache standing in for the GCD's shared L2, plus the MemProbe through which
// kernel code issues every global-memory access.
//
// Design notes
//  * Addresses are virtual "device addresses" handed out by the Device
//    allocator; the cache is keyed on line index (addr / line_bytes).
//  * The cache is sharded by line index so concurrent workers mostly touch
//    distinct shards; each shard is an independent LRU set-assoc cache with
//    capacity l2_bytes / n_shards and its own spinlock.  With one worker
//    (deterministic profile mode) results are exact and bit-reproducible;
//    with many workers the LRU interleaving introduces only small jitter in
//    hit counts, never in algorithm results.
//  * Consecutive lanes of a wavefront execute back-to-back on one worker, so
//    same-line accesses from neighbouring lanes hit immediately: the cache
//    model doubles as the coalescing model.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "hipsim/counters.h"
#include "hipsim/device_profile.h"

namespace xbfs::sim {

/// One shard of the L2 model: a standalone set-associative LRU cache.
/// Public so unit tests can exercise replacement behaviour directly.
class CacheShard {
 public:
  /// @param capacity_bytes shard capacity (rounded down to a power-of-two
  ///        set count); @param line_bytes line size; @param ways associativity.
  CacheShard(std::uint64_t capacity_bytes, unsigned line_bytes, unsigned ways);

  struct AccessResult {
    bool hit = false;
    bool writeback = false;  ///< a dirty line was evicted
  };

  /// Probe/fill one line.  @param line line index (already addr/line_bytes).
  AccessResult access(std::uint64_t line, bool is_write);
  /// Whether `line` is resident; changes no replacement state.
  bool contains(std::uint64_t line) const;

  /// Drop all resident lines (used between independent experiments).
  void invalidate_all();

  unsigned num_sets() const { return num_sets_; }
  unsigned ways() const { return ways_; }

 private:
  static constexpr std::uint64_t kInvalidTag = ~0ull;

  unsigned set_of(std::uint64_t line) const;

  struct Way {
    std::uint64_t tag = kInvalidTag;
    std::uint64_t stamp = 0;
    bool dirty = false;
  };

  unsigned num_sets_;
  unsigned ways_;
  std::uint64_t stamp_ = 0;
  std::vector<Way> ways_storage_;  // num_sets_ * ways_, row-major by set
};

/// The full L2 model: shards + spinlocks.
class L2Model {
 public:
  /// Address-sharded slices of a Device's L2.
  static constexpr unsigned kShards = 64;

  /// `n_shards` is rounded down to a power of two.
  explicit L2Model(const DeviceProfile& profile, unsigned n_shards);

  /// Probe the model for an access of `bytes` payload bytes at device
  /// address `addr`; accounts line fills into `c`.  Crossing accesses touch
  /// every covered line.
  void access(std::uint64_t addr, unsigned bytes, bool is_write,
              KernelCounters& c);
  /// Non-temporal (streaming) access, HIP's __builtin_nontemporal_load /
  /// _store: a read is served from L2 when its line is resident and from
  /// HBM otherwise, a write goes through to HBM, and neither allocates a
  /// line or touches replacement state.  `last_line`, when given, is the
  /// line the caller's previous streaming read ended on: a read of that
  /// line coalesces into the fetch already made (charged its payload, as
  /// a lane joining its wavefront's transaction), and the read leaves its
  /// own last line there.
  void stream(std::uint64_t addr, unsigned bytes, bool is_write,
              KernelCounters& c, std::uint64_t* last_line = nullptr);

  void invalidate_all();

  unsigned line_bytes() const { return line_bytes_; }
  unsigned n_shards() const { return static_cast<unsigned>(shards_.size()); }

 private:
  struct Spinlock {
    std::atomic_flag flag = ATOMIC_FLAG_INIT;
    void lock() {
      while (flag.test_and_set(std::memory_order_acquire)) {
      }
    }
    void unlock() { flag.clear(std::memory_order_release); }
  };

  unsigned line_bytes_;
  std::vector<std::unique_ptr<CacheShard>> shards_;
  std::unique_ptr<Spinlock[]> locks_;
};

/// Handle through which kernel code performs modelled memory operations.
/// One probe per worker; owns the worker-local counter block.
class MemProbe {
 public:
  MemProbe(L2Model* l2, KernelCounters* counters)
      : l2_(l2), counters_(counters) {}

  void read(std::uint64_t addr, unsigned bytes) {
    counters_->mem_reads += 1;
    counters_->bytes_read += bytes;
    l2_->access(addr, bytes, /*is_write=*/false, *counters_);
  }
  void write(std::uint64_t addr, unsigned bytes) {
    counters_->mem_writes += 1;
    counters_->bytes_written += bytes;
    l2_->access(addr, bytes, /*is_write=*/true, *counters_);
  }
  /// Consecutive streaming reads of one line by one block coalesce into
  /// one fetch (L2Model::stream).
  void read_nontemporal(std::uint64_t addr, unsigned bytes) {
    counters_->mem_reads += 1;
    counters_->bytes_read += bytes;
    l2_->stream(addr, bytes, /*is_write=*/false, *counters_, &stream_line_);
  }
  void write_nontemporal(std::uint64_t addr, unsigned bytes) {
    counters_->mem_writes += 1;
    counters_->bytes_written += bytes;
    l2_->stream(addr, bytes, /*is_write=*/true, *counters_);
  }
  /// Atomic read-modify-write: counted as an atomic plus a write-probe.
  void atomic_rmw(std::uint64_t addr, unsigned bytes) {
    counters_->atomics += 1;
    counters_->bytes_read += bytes;
    counters_->bytes_written += bytes;
    l2_->access(addr, bytes, /*is_write=*/true, *counters_);
  }
  void count_slots(std::uint64_t slots, std::uint64_t active) {
    counters_->lane_slots += slots;
    counters_->active_lanes += active;
    counters_->wavefront_steps += 1;
  }

  KernelCounters& counters() { return *counters_; }
  /// A new block starts on this probe: nothing it streams is coalesced
  /// with the previous block's reads.
  void begin_block() { stream_line_ = kNoLine; }

 private:
  static constexpr std::uint64_t kNoLine = ~0ull;

  L2Model* l2_;
  KernelCounters* counters_;
  std::uint64_t stream_line_ = kNoLine;  ///< the last streaming read's line
};

}  // namespace xbfs::sim
