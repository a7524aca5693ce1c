// Device: the simulated GPU.  Owns the virtual-address allocator, the L2
// model, the worker pool that executes kernels, the stream clocks and the
// profiler.  This is the simulator's public entry point — the "HIP runtime"
// of this repository.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "hipsim/block.h"
#include "hipsim/buffer.h"
#include "hipsim/counters.h"
#include "hipsim/device_profile.h"
#include "hipsim/mem_model.h"
#include "hipsim/profiler.h"
#include "hipsim/stream.h"
#include "hipsim/thread_pool.h"
#include "hipsim/timing.h"

namespace xbfs::sim {

struct SimOptions {
  /// Worker threads executing simulated blocks.  1 gives bit-exact,
  /// sequential "deterministic profile mode"; 0 = hardware concurrency.
  unsigned num_workers = 0;
  /// LDS arena per worker (shared memory per simulated block).
  std::size_t lds_bytes = 64 * 1024;
  /// Record per-launch profiler rows.
  bool profiling = true;
};

struct LaunchConfig {
  unsigned grid_blocks = 1;
  unsigned block_threads = 256;
  /// Issue-slot cost multiplier for this kernel (register-spill modelling).
  double lane_work_multiplier = 1.0;
};

struct LaunchResult {
  double time_us = 0;
  KernelCounters counters;
  TimingBreakdown timing;
};

class GridCtx;
class MultiGridCtx;
class Device;

/// One device's share of a multi-device cooperative launch: the stream it
/// launches on and its resident grid.
struct GridMember {
  Device* device = nullptr;
  Stream* stream = nullptr;
  LaunchConfig cfg;
};

/// Where a kernel body is issued: as its own launch on a stream, or as one
/// phase of a running cooperative launch (hipsim/grid.h).  Kernel helpers
/// take a LaunchTarget, so one copy of a body serves both; the implicit
/// conversions keep stream call sites unchanged.
class LaunchTarget {
 public:
  LaunchTarget(Stream& s) : stream_(&s) {}
  LaunchTarget(GridCtx& g) : grid_(&g) {}

  Stream* stream() const { return stream_; }
  GridCtx* grid() const { return grid_; }

 private:
  Stream* stream_ = nullptr;
  GridCtx* grid_ = nullptr;
};

/// Per-consumer counter-attribution sink (obs tentpole: per-query cost
/// slicing).  While attached, every launch and modelled copy adds its
/// KernelCounters rollup, launch/copy counts and modelled time here, so
/// the serving engine can bill device work to the exact query (or sweep
/// batch) that consumed it.  Not internally synchronised: attach/detach
/// and all device work must share the caller's serialisation — in
/// serving, the per-GCD lock that already guards every device call.
struct AttributionSink {
  KernelCounters counters;
  std::uint64_t launches = 0;
  std::uint64_t memcpys = 0;
  std::uint64_t syncs = 0;   ///< host waits (counted, their time not billed)
  double modelled_us = 0.0;  ///< kernel + copy time attributed
};

class Device {
 public:
  explicit Device(DeviceProfile profile, SimOptions options = {});
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const DeviceProfile& profile() const { return profile_; }
  const SimOptions& options() const { return options_; }

  // --- memory -------------------------------------------------------------
  /// The optional name labels the allocation in SimSan findings
  /// (hipsim/sanitizer.h); it costs nothing when the sanitizer is off.
  template <typename T>
  DeviceBuffer<T> alloc(std::size_t n, std::string name = {}) {
    return DeviceBuffer<T>(reserve_addr(n * sizeof(T)), n, std::move(name));
  }
  std::uint64_t allocated_bytes() const { return next_addr_; }

  /// Modelled host<->device copies: advance the stream clock by the copy
  /// time; the data itself already lives host-side so no bytes move.
  double memcpy_h2d(Stream& s, std::uint64_t bytes);
  double memcpy_d2h(Stream& s, std::uint64_t bytes);
  double memcpy_h2d(std::uint64_t bytes) { return memcpy_h2d(stream(0), bytes); }
  double memcpy_d2h(std::uint64_t bytes) { return memcpy_d2h(stream(0), bytes); }

  /// Typed copies: one modelled transfer covering every listed buffer in
  /// full (byte counts sum, so batching N buffers still costs exactly one
  /// copy of their total size) plus the sanitizer bookkeeping — d2h marks
  /// host reads in sync, h2d marks device content host-authored.  For
  /// *partial* copies keep the byte-count overloads and call
  /// mark_host_synced()/mark_device_synced() on the buffer yourself.
  template <typename T, typename... Ts>
  double memcpy_d2h(Stream& s, const DeviceBuffer<T>& b,
                    const DeviceBuffer<Ts>&... rest) {
    const std::uint64_t bytes =
        b.size() * sizeof(T) +
        (std::uint64_t{0} + ... + (rest.size() * sizeof(Ts)));
    const double t = memcpy_d2h(s, bytes);
    b.mark_host_synced();
    (rest.mark_host_synced(), ...);
    return t;
  }
  template <typename T, typename... Ts>
  double memcpy_h2d(Stream& s, const DeviceBuffer<T>& b,
                    const DeviceBuffer<Ts>&... rest) {
    const std::uint64_t bytes =
        b.size() * sizeof(T) +
        (std::uint64_t{0} + ... + (rest.size() * sizeof(Ts)));
    const double t = memcpy_h2d(s, bytes);
    b.mark_device_synced();
    (rest.mark_device_synced(), ...);
    return t;
  }

  /// Injected memcpy corruption (see hipsim/fault.h).  Because modelled
  /// copies move no real bytes, a corrupted transfer raises this flag
  /// instead; the consumer that owns the destination data (e.g. the serving
  /// engine reading back BFS levels) polls the flag after its copies and
  /// poisons its own data so validators see real corruption.
  bool take_pending_corruption() {
    const bool p = pending_corruption_;
    pending_corruption_ = false;
    return p;
  }
  std::uint64_t corrupted_copies() const { return corrupted_copies_; }

  // --- execution ----------------------------------------------------------
  using KernelBody = std::function<void(BlockCtx&)>;
  using GridProgram = std::function<void(GridCtx&)>;
  using MultiGridProgram = std::function<void(MultiGridCtx&)>;

  /// On a stream: one launch.  On a cooperative launch: one of its phases
  /// (GridCtx::phase).
  LaunchResult launch(LaunchTarget on, std::string_view name,
                      const LaunchConfig& cfg, const KernelBody& body);
  LaunchResult launch(std::string_view name, const LaunchConfig& cfg,
                      const KernelBody& body) {
    return launch(stream(0), name, cfg, body);
  }
  /// Cooperative (grid-resident) launch: cfg.grid_blocks blocks stay
  /// resident while `program` issues the kernel's phases through the
  /// GridCtx (hipsim/grid.h).  Pays the launch overhead once; the result
  /// carries the whole launch's counters and modelled time.
  LaunchResult launch_grid(Stream& s, std::string_view name,
                           const LaunchConfig& cfg,
                           const GridProgram& program);
  /// Multi-device cooperative launch (hipLaunchCooperativeKernelMultiDevice):
  /// one resident grid per member, all starting once every member's stream
  /// is free.  `program` stands for every device's lockstep control flow
  /// and crosses devices only through MultiGridCtx::exchange (grid.h).
  /// Each device pays its launch overhead and draws faults once; an
  /// injected fault surfaces when the launch ends, as MultiGridFault naming
  /// the member.  Returns each member's launch result, in member order.
  static std::vector<LaunchResult> launch_grid(
      const std::vector<GridMember>& members, std::string_view name,
      const MultiGridProgram& program);

  // --- streams and the modelled clock ---------------------------------------
  /// Stream 0 always exists; create_stream() adds more.
  Stream& stream(std::size_t i) { return streams_[i]; }
  Stream& create_stream(std::string name);
  std::size_t num_streams() const { return streams_.size(); }

  /// hipDeviceSynchronize(): advance the device floor past every stream and
  /// pay the profile's device-sync cost.
  void synchronize();
  /// Join a set of streams with cross-stream event waits: all named streams
  /// advance to the max of their clocks plus (n-1) joins' cost.
  void join_streams(const std::vector<Stream*>& ss);
  /// Model host-side (CPU) work on the critical path.
  void host_work(double us);

  /// Modelled elapsed time: max over the floor and all stream clocks (us).
  double now_us() const;
  /// Reset clocks (not allocations, not cache state).
  void reset_clock();
  /// Drop all cached lines (between independent measurements).
  void invalidate_l2() { l2_->invalidate_all(); }

  Profiler& profiler() { return profiler_; }
  L2Model& l2() { return *l2_; }

  /// Trace-lane id of this device: every Device gets a unique pid in the
  /// obs trace so multi-GCD runs render one process group per device
  /// (pid 0 is reserved for the host/coordinator).
  int trace_pid() const { return trace_pid_; }
  /// Relabel this device's trace lane (dist names its GCDs by rank).
  void set_trace_label(const std::string& label);

  /// Pay the one-time first-launch (module load) cost now, off the measured
  /// path; benches that model a warmed-up device call this before timing.
  void warmup();

  /// Attach (or detach with nullptr) the counter-attribution sink; see
  /// AttributionSink for the synchronisation contract.  A launch that
  /// faults before executing attributes nothing.
  void attach_attribution(AttributionSink* sink) { attr_sink_ = sink; }
  AttributionSink* attribution() const { return attr_sink_; }

 private:
  friend class Stream;
  friend class GridCtx;

  /// What executing a grid of blocks yields before any pricing.
  struct BlockRun {
    KernelCounters counters;
    double raw_imbalance = 1.0;
    /// SimSan's access logs (empty unless it is on), for the caller's race
    /// analysis: one launch or phase, or a fused uniform and phase.
    std::vector<SanRecorder> san_logs;
  };
  void check_launch_config(std::string_view name,
                           const LaunchConfig& cfg) const;
  /// Host work (copies, synchronization) cannot run while a cooperative
  /// launch is resident: throws std::logic_error naming `what`.
  void check_no_grid(const char* what) const;
  /// Fault injection at a launch: throws FaultInjected on an injected
  /// kernel fault, else returns the injected latency spike (us).
  double inject_launch_faults(Stream& s, std::string_view name);
  /// Attribution sink and metrics for one finished launch.
  void bill_launch(const LaunchResult& r);
  /// Close a cooperative launch: advance its stream, bill it, trace it.
  LaunchResult end_grid(GridCtx& grid);
  /// Run cfg.grid_blocks blocks of `body` (worker pool, or controlled tasks
  /// under SchedCheck) with SimSan's per-access checks; the race analysis
  /// of the returned logs is the caller's.
  BlockRun run_blocks(std::string_view name, const LaunchConfig& cfg,
                      const KernelBody& body);
  std::uint64_t reserve_addr(std::uint64_t bytes);
  double stream_begin(Stream& s) const;
  void maybe_corrupt_copy(const char* name);
  void trace_memcpy(const char* name, const Stream& s, double start_us,
                    double dur_us, std::uint64_t bytes) const;

  DeviceProfile profile_;
  SimOptions options_;
  std::unique_ptr<L2Model> l2_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<ShMem>> worker_shmem_;
  std::deque<Stream> streams_;
  Profiler profiler_;
  std::uint64_t next_addr_ = 0;
  double t_floor_ = 0.0;
  bool first_launch_done_ = false;
  bool pending_corruption_ = false;
  std::uint64_t corrupted_copies_ = 0;
  int trace_pid_ = 0;
  AttributionSink* attr_sink_ = nullptr;
  GridCtx* active_grid_ = nullptr;  ///< the running cooperative launch
};

/// RAII attach/detach for AttributionSink around one attributed scope.
class ScopedAttribution {
 public:
  ScopedAttribution(Device& dev, AttributionSink& sink) : dev_(dev) {
    dev_.attach_attribution(&sink);
  }
  ~ScopedAttribution() { dev_.attach_attribution(nullptr); }

  ScopedAttribution(const ScopedAttribution&) = delete;
  ScopedAttribution& operator=(const ScopedAttribution&) = delete;

 private:
  Device& dev_;
};

}  // namespace xbfs::sim
