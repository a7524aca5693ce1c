#include "hipsim/fault.h"

#include <cstdio>
#include <cstdlib>

namespace xbfs::sim {

namespace {

/// splitmix64: tiny, well-mixed, stateless — ideal for counter-based
/// deterministic decisions (same seed + same sequence number -> same draw
/// no matter which thread asks).
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double uniform01(std::uint64_t h) {
  // Top 53 bits -> [0,1) double.
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::KernelFault: return "kernel-fault";
    case FaultKind::MemcpyCorruption: return "memcpy-corruption";
    case FaultKind::WorkerStall: return "worker-stall";
    case FaultKind::WorkerDeath: return "worker-death";
    case FaultKind::LatencySpike: return "latency-spike";
    case FaultKind::DiskTornWrite: return "disk-torn-write";
    case FaultKind::DiskShortWrite: return "disk-short-write";
    case FaultKind::FsyncFail: return "fsync-fail";
  }
  return "unknown";
}

double FaultConfig::rate(FaultKind k) const {
  switch (k) {
    case FaultKind::KernelFault: return kernel_fault_rate;
    case FaultKind::MemcpyCorruption: return memcpy_corruption_rate;
    case FaultKind::WorkerStall: return worker_stall_rate;
    case FaultKind::WorkerDeath: return worker_death_rate;
    case FaultKind::LatencySpike: return latency_spike_rate;
    case FaultKind::DiskTornWrite: return disk_torn_rate;
    case FaultKind::DiskShortWrite: return disk_short_rate;
    case FaultKind::FsyncFail: return fsync_fail_rate;
  }
  return 0.0;
}

FaultConfig FaultConfig::from_env_string(const std::string& spec) {
  FaultConfig cfg;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "XBFS_FAULTS: ignoring malformed item '%s'\n",
                   item.c_str());
      continue;
    }
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    char* parse_end = nullptr;
    const double num = std::strtod(val.c_str(), &parse_end);
    if (parse_end == val.c_str()) {
      std::fprintf(stderr, "XBFS_FAULTS: ignoring non-numeric value '%s'\n",
                   item.c_str());
      continue;
    }
    if (key == "kernel") cfg.kernel_fault_rate = num;
    else if (key == "memcpy") cfg.memcpy_corruption_rate = num;
    else if (key == "stall") cfg.worker_stall_rate = num;
    else if (key == "death") cfg.worker_death_rate = num;
    else if (key == "spike") cfg.latency_spike_rate = num;
    else if (key == "disk_torn") cfg.disk_torn_rate = num;
    else if (key == "disk_short") cfg.disk_short_rate = num;
    else if (key == "fsync_fail") cfg.fsync_fail_rate = num;
    else if (key == "stall_ms") cfg.stall_ms = num;
    else if (key == "spike_us") cfg.latency_spike_us = num;
    else if (key == "seed") cfg.seed = static_cast<std::uint64_t>(num);
    else {
      std::fprintf(stderr, "XBFS_FAULTS: ignoring unknown key '%s'\n",
                   key.c_str());
    }
  }
  return cfg;
}

FaultInjector& FaultInjector::global() {
  static FaultInjector* instance = [] {
    auto* fi = new FaultInjector();
    if (const char* env = std::getenv("XBFS_FAULTS")) {
      const FaultConfig cfg = FaultConfig::from_env_string(env);
      if (cfg.any()) fi->configure(cfg);
    }
    return fi;
  }();
  return *instance;
}

void FaultInjector::configure(const FaultConfig& cfg) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    cfg_ = cfg;
  }
  // Restart both decision streams: a seeded run replays the same draws
  // whatever this process drew before it.
  for (std::atomic<std::uint64_t>& seq : seq_) {
    seq.store(0, std::memory_order_relaxed);
  }
  corrupt_seq_.store(0, std::memory_order_relaxed);
  enabled_.store(cfg.any(), std::memory_order_release);
}

void FaultInjector::disable() {
  enabled_.store(false, std::memory_order_release);
}

bool FaultInjector::should_inject(FaultKind k) {
  const unsigned ki = static_cast<unsigned>(k);
  double rate;
  std::uint64_t seed;
  {
    std::lock_guard<std::mutex> lk(mu_);
    rate = cfg_.rate(k);
    seed = cfg_.seed;
  }
  // Sequence numbers advance even at rate 0 so enabling one kind does not
  // shift another kind's decision stream.
  const std::uint64_t seq = seq_[ki].fetch_add(1, std::memory_order_relaxed);
  if (rate <= 0.0) return false;
  const std::uint64_t h =
      splitmix64(seed ^ (0x51ED270B1ull * (ki + 1)) ^ (seq * 0x2545F4914F6CDD1Dull));
  const bool hit = uniform01(h) < rate;
  if (hit) hits_[ki].fetch_add(1, std::memory_order_relaxed);
  return hit;
}

std::uint64_t FaultInjector::decisions(FaultKind k) const {
  return seq_[static_cast<unsigned>(k)].load(std::memory_order_relaxed);
}

std::uint64_t FaultInjector::injected(FaultKind k) const {
  return hits_[static_cast<unsigned>(k)].load(std::memory_order_relaxed);
}

std::uint64_t FaultInjector::total_injected() const {
  std::uint64_t t = 0;
  for (unsigned i = 0; i < kNumFaultKinds; ++i) {
    t += hits_[i].load(std::memory_order_relaxed);
  }
  return t;
}

void FaultInjector::reset_counters() {
  for (unsigned i = 0; i < kNumFaultKinds; ++i) {
    seq_[i].store(0, std::memory_order_relaxed);
    hits_[i].store(0, std::memory_order_relaxed);
  }
  corrupt_seq_.store(0, std::memory_order_relaxed);
}

double FaultInjector::stall_ms() const {
  std::lock_guard<std::mutex> lk(mu_);
  return cfg_.stall_ms;
}

double FaultInjector::latency_spike_us() const {
  std::lock_guard<std::mutex> lk(mu_);
  return cfg_.latency_spike_us;
}

FaultConfig FaultInjector::config() const {
  std::lock_guard<std::mutex> lk(mu_);
  return cfg_;
}

void FaultInjector::corrupt_levels(std::vector<std::int32_t>& levels) {
  if (levels.empty()) return;
  std::uint64_t seed;
  {
    std::lock_guard<std::mutex> lk(mu_);
    seed = cfg_.seed;
  }
  const std::uint64_t seq =
      corrupt_seq_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t h = splitmix64(seed ^ 0xBADC0DEull ^ (seq << 17));
  const std::size_t idx = static_cast<std::size_t>(h % levels.size());
  std::int32_t& slot = levels[idx];
  if (slot < 0) {
    // Unreached sentinel -> bogus "reached at level 0": violates the
    // unique-source rule (or reached/unreached edge rule) in any validator.
    slot = 0;
  } else {
    // Flip a low bit: the exact-distance labeling is unique, so any changed
    // reached level breaks one of the per-edge distance constraints.
    slot ^= 0x1;
  }
}

}  // namespace xbfs::sim
