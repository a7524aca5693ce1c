// Cooperative (grid-resident) launches: one launch whose body is a sequence
// of grid phases separated by grid barriers — the grid-scope analogue of
// BlockCtx::threads phases separated by __syncthreads().
//
// Device::launch_grid keeps cfg.grid_blocks blocks resident and hands a
// GridCtx to the launch's *program*.  The program runs once, on the
// launching thread, and stands for the control flow every block of the
// kernel executes in lockstep:
//
//   * phase(name, cfg, body) runs body on blocks [0, cfg.grid_blocks) — the
//     block count a stand-alone launch of the same kernel would use — while
//     the other resident blocks go straight to the barrier that ends it.
//     Kernel helpers reach it through a LaunchTarget (device.h), so one
//     body serves both the stream launch and the phase.
//   * uniform(name, f) is a phase over every resident block in which each
//     block computes f(blk) — typically from counters the previous phases
//     left in device memory.  The simulator checks that all blocks compute
//     the same value and returns it; the program's loop state must come
//     only from such values (and kernel arguments), never from host reads.
//
// Pricing: the launch pays kernel_launch_us once; each phase costs its
// bottleneck x imbalance (phase_time, exactly a stand-alone launch's body);
// each barrier between two phases costs grid_barrier_us (one global atomic
// per resident block plus an L2 round trip).  A uniform phase owes no
// barrier to the phase that follows it: every block computes the value and
// branches straight into the chosen kernel's body, so the pair is one
// stretch of code between two barriers.  The barrier in front of a uniform
// phase stays (its loads must see every block's earlier writes), as does
// one between two uniform phases.  Phases other than uniform ones record
// one profiler row each under the kernel's own name; the first of them
// carries the launch overhead and LaunchRecord::launched.
//
// Fault injection draws once per cooperative launch, at the launch.  An
// injected kernel fault is reported the way a device-side error is: the
// kernel runs, launch_grid throws FaultInjected when it ends, and the
// attribution sink is billed for it.
//
// SimSan analyzes the accesses between two barriers as one session, so a
// barrier is a happens-before edge between blocks while a cross-block
// conflict inside one session is still a race.  A session is one phase,
// or a uniform phase together with the phase that follows it: a block's
// write in that phase to a word another block read for the uniform value
// is a race, since nothing made the reader finish first.  Under SchedCheck
// each phase is one controlled session (the next phase's body depends on
// the uniform value, so the pair cannot be interleaved as one).  While a
// program runs, the device refuses stream launches and host copies: the
// kernel is resident, and nothing returns to the host until it ends.
//
// The multi-device form (hipLaunchCooperativeKernelMultiDevice) opens one
// GridCtx per device, all starting together, and hands the program a
// MultiGridCtx.  Its exchange(name, collective) is the device-initiated
// cross-device step between grid phases (peer writes over the fabric plus
// a multi-grid sync): `collective` moves the bytes between the devices'
// memories and returns the fabric time it is priced at; every grid then
// waits for the slowest one to reach its barrier, and all of them resume
// at that arrival plus the fabric time.  Like a phase boundary it orders
// every write before it against every access after it, on every device,
// and it pays its barrier even right behind a uniform phase.  That barrier
// is the only one between the phases on either side: the phase right
// behind an exchange (a uniform one too) pays none of its own.
// MultiGridCtx::uniform is GridCtx::uniform on every device, checked to
// agree across devices too: each device's next phase pays no barrier.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "hipsim/device.h"
#include "hipsim/fault.h"

namespace xbfs::sim {

class GridCtx {
 public:
  GridCtx(const GridCtx&) = delete;
  GridCtx& operator=(const GridCtx&) = delete;

  Device& device() const { return dev_; }
  unsigned resident_blocks() const { return cfg_.grid_blocks; }
  /// Modelled device clock at the end of the last phase (us).
  double now_us() const { return start_us_ + elapsed_us_; }
  unsigned phases() const { return phases_; }
  unsigned barriers() const { return barriers_; }

  /// One grid phase; throws std::invalid_argument unless cfg.grid_blocks
  /// fits the resident grid and cfg.block_threads matches it.  The result
  /// prices the phase body alone (no launch overhead).
  LaunchResult phase(std::string_view name, const LaunchConfig& cfg,
                     const Device::KernelBody& body) {
    return run_phase(name, cfg, body, /*row=*/true);
  }

  /// Every resident block evaluates f(blk); throws std::logic_error unless
  /// all results compare equal, else returns the common value.  The next
  /// phase() pays no barrier.
  template <typename F>
  auto uniform(std::string_view name, F&& f) {
    using T = std::decay_t<std::invoke_result_t<F&, BlockCtx&>>;
    std::vector<std::optional<T>> got(resident_blocks());
    run_phase(
        name, cfg_,
        [&](BlockCtx& blk) { got[blk.block_id()].emplace(f(blk)); },
        /*row=*/false);
    for (std::size_t b = 1; b < got.size(); ++b) {
      if (!(*got[b] == *got[0])) {
        throw std::logic_error("GridCtx::uniform '" + std::string(name) +
                               "': block " + std::to_string(b) +
                               " computed a different value than block 0");
      }
    }
    return std::move(*got[0]);
  }

 private:
  friend class Device;
  friend class MultiGridCtx;
  GridCtx(Device& dev, Stream& s, std::string_view name,
          const LaunchConfig& cfg, double start_us, double launch_us);

  LaunchResult run_phase(std::string_view name, const LaunchConfig& cfg,
                         const Device::KernelBody& body, bool row);
  /// Analyze a uniform phase's held access logs alone: a barrier (or the
  /// launch's end) follows it.
  void flush_san();

  Device& dev_;
  Stream& stream_;
  std::string name_;
  LaunchConfig cfg_;
  double start_us_;
  double launch_us_;   ///< launch overhead (+ warm-up, injected spike)
  double barrier_us_;  ///< grid_barrier_us of the resident grid
  double elapsed_us_;  ///< launch overhead + phases + barriers so far
  unsigned phases_ = 0;
  unsigned barriers_ = 0;
  bool after_uniform_ = false;   ///< the last phase was a uniform one
  bool after_exchange_ = false;  ///< the last step was an exchange
  std::string held_name_;        ///< that uniform phase's name
  /// Its SimSan access logs, analyzed with the next phase's.
  std::vector<SanRecorder> held_logs_;
  bool launch_billed_ = false;  ///< a profiler row carries the launch
  KernelCounters counters_;     ///< every phase, uniform ones included
  TimingBreakdown timing_;      ///< per-resource times summed over phases
};

/// The program's view of a multi-device cooperative launch.
class MultiGridCtx {
 public:
  MultiGridCtx(const MultiGridCtx&) = delete;
  MultiGridCtx& operator=(const MultiGridCtx&) = delete;

  std::size_t size() const { return grids_.size(); }
  /// Member i's grid: kernel helpers issue its phases through it.
  GridCtx& grid(std::size_t i) { return *grids_[i]; }
  /// The slowest grid's clock (us).
  double now_us() const;

  /// The cross-device step: runs `collective`, then aligns every grid to
  /// the slowest one's clock plus its grid barrier, plus the fabric time
  /// `collective` returned.  Returns that fabric time.
  double exchange(std::string_view name,
                  const std::function<double()>& collective);

  /// Every device's grid evaluates f(i, blk) as GridCtx::uniform; throws
  /// std::logic_error unless every block of every device agrees.
  template <typename F>
  auto uniform(std::string_view name, F&& f) {
    using T = std::decay_t<std::invoke_result_t<F&, std::size_t, BlockCtx&>>;
    std::optional<T> first;
    for (std::size_t i = 0; i < grids_.size(); ++i) {
      T v = grids_[i]->uniform(name, [&](BlockCtx& blk) { return f(i, blk); });
      if (!first) {
        first.emplace(std::move(v));
      } else if (!(v == *first)) {
        throw std::logic_error("MultiGridCtx::uniform '" + std::string(name) +
                               "': device " + std::to_string(i) +
                               " computed a different value than device 0");
      }
    }
    return std::move(*first);
  }

 private:
  friend class Device;
  explicit MultiGridCtx(std::vector<std::unique_ptr<GridCtx>> grids)
      : grids_(std::move(grids)) {}

  std::vector<std::unique_ptr<GridCtx>> grids_;
};

/// An injected kernel fault on one device of a multi-device launch;
/// member() is that device's index in the launch's member list.
class MultiGridFault : public FaultInjected {
 public:
  MultiGridFault(std::size_t member, const FaultInjected& f)
      : FaultInjected(f), member_(member) {}
  std::size_t member() const { return member_; }

 private:
  std::size_t member_;
};

}  // namespace xbfs::sim
