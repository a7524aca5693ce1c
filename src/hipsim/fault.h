// Deterministic fault injection for the simulated GPU.  A process-wide
// FaultInjector decides — from a seeded counter-based hash, so runs are
// reproducible regardless of thread interleaving — whether each kernel
// launch, host<->device copy or pool worker experiences an injected fault.
//
// Enabled either programmatically (FaultInjector::global().configure(...))
// or from the environment:
//
//   XBFS_FAULTS="kernel=0.05,memcpy=0.02,stall=0.01,stall_ms=2,death=0.001,
//                spike=0.01,spike_us=500,disk_torn=0.02,disk_short=0.02,
//                fsync_fail=0.01,seed=42"
//
// Rates are per-event probabilities in [0,1].  Everything is off by default;
// the hot-path cost when disabled is one relaxed atomic load.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace xbfs::sim {

enum class FaultKind : unsigned {
  KernelFault = 0,    ///< launch throws FaultInjected (hipErrorUnknown-like)
  MemcpyCorruption,   ///< transfer silently flagged corrupt (data poisoned)
  WorkerStall,        ///< pool worker sleeps stall_ms before its chunks
  WorkerDeath,        ///< pool worker skips this job entirely (work is stolen)
  LatencySpike,       ///< launch time inflated by latency_spike_us
  DiskTornWrite,      ///< store::File::append lands a prefix, then errors
  DiskShortWrite,     ///< store::File::append lands n-k bytes, then errors
  FsyncFail,          ///< store::File::sync returns an error, data not durable
};
inline constexpr unsigned kNumFaultKinds = 8;

const char* fault_kind_name(FaultKind k);

struct FaultConfig {
  double kernel_fault_rate = 0.0;
  double memcpy_corruption_rate = 0.0;
  double worker_stall_rate = 0.0;
  double worker_death_rate = 0.0;
  double latency_spike_rate = 0.0;
  double disk_torn_rate = 0.0;   ///< torn write: prefix persisted, op fails
  double disk_short_rate = 0.0;  ///< short write: n-k bytes persisted, op fails
  double fsync_fail_rate = 0.0;  ///< fsync reports failure, nothing guaranteed
  double stall_ms = 1.0;          ///< sleep length of an injected stall
  double latency_spike_us = 200;  ///< added modelled time of a spike
  std::uint64_t seed = 0xC0FFEEull;

  bool any() const {
    return kernel_fault_rate > 0 || memcpy_corruption_rate > 0 ||
           worker_stall_rate > 0 || worker_death_rate > 0 ||
           latency_spike_rate > 0 || disk_torn_rate > 0 ||
           disk_short_rate > 0 || fsync_fail_rate > 0;
  }
  double rate(FaultKind k) const;

  /// Parse the XBFS_FAULTS spec ("kernel=0.05,memcpy=0.02,seed=42", see
  /// header comment).  Unknown keys warn to stderr and are ignored;
  /// malformed numbers leave the field at its default.
  static FaultConfig from_env_string(const std::string& spec);
};

/// Thrown by Device::launch for an injected kernel fault.  The resilient
/// serving path catches it and retries/degrades; everything else propagates
/// it like a real hipError would surface.
class FaultInjected : public std::runtime_error {
 public:
  FaultInjected(FaultKind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}
  FaultKind kind() const { return kind_; }

 private:
  FaultKind kind_;
};

class FaultInjector {
 public:
  /// Process-wide instance.  First use reads XBFS_FAULTS from the
  /// environment (if set) so any binary can be chaos-tested unmodified.
  static FaultInjector& global();

  FaultInjector() = default;
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Install `cfg` and restart the per-kind and corruption decision
  /// streams, so a seed draws the same sequence in any process state.
  /// injected() counts are kept (reset_counters() clears them).
  void configure(const FaultConfig& cfg);
  void disable();

  /// Hot-path gate: one relaxed atomic load when faults are off.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Decide whether the next event of this kind faults.  Deterministic in
  /// (seed, kind, per-kind decision sequence number); thread-safe.
  bool should_inject(FaultKind k);

  std::uint64_t decisions(FaultKind k) const;
  std::uint64_t injected(FaultKind k) const;
  std::uint64_t total_injected() const;
  void reset_counters();

  double stall_ms() const;
  double latency_spike_us() const;
  FaultConfig config() const;

  /// Apply a memcpy-corruption to a finished result: deterministically pick
  /// one entry and poison it (reached levels get a bit flipped; unreached
  /// sentinels become a bogus non-sentinel).  Any single-entry change breaks
  /// the exact-BFS-distance labeling, so a full validator always detects it.
  void corrupt_levels(std::vector<std::int32_t>& levels);

 private:
  mutable std::mutex mu_;
  FaultConfig cfg_;
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> seq_[kNumFaultKinds] = {};
  std::atomic<std::uint64_t> hits_[kNumFaultKinds] = {};
  std::atomic<std::uint64_t> corrupt_seq_{0};
};

}  // namespace xbfs::sim
