// Analytic kernel-time model.
//
// A kernel's modelled duration is its bottleneck resource time (HBM
// bandwidth, L2 service bandwidth, SIMT issue slots, or atomic throughput)
// scaled by a load-imbalance factor derived from per-virtual-CU busy times,
// plus the fixed launch overhead.  All quantities come straight from the
// merged KernelCounters, so the model is transparent and unit-testable.
#pragma once

#include "hipsim/counters.h"
#include "hipsim/device_profile.h"

namespace xbfs::sim {

struct TimingBreakdown {
  double t_hbm_us = 0;     ///< HBM traffic time (fetch + writeback)
  double t_l2_us = 0;      ///< L2-served traffic time
  double t_latency_us = 0; ///< dependent-access latency over the MLP budget
  double t_slots_us = 0;   ///< SIMT issue time
  double t_atomic_us = 0;  ///< atomic serialization time
  double bottleneck_us = 0;
  double imbalance = 1.0;  ///< applied multiplier (clamped)
  double total_us = 0;     ///< launch overhead + bottleneck * imbalance

  /// rocprofiler "MemUnitBusy" (%): fraction of kernel time the memory
  /// system is the active resource.
  double mem_unit_busy_pct() const {
    return total_us <= 0 ? 0.0 : 100.0 * t_hbm_us / total_us;
  }
};

/// @param lane_work_multiplier whole-kernel modelled-time multiplier
///        (register-spill / compiler-effect modelling; 1.0 = clean build).
/// @param raw_imbalance max over virtual CUs of busy time divided by the
///        mean over active CUs; clamped to [1, 8] before application.
TimingBreakdown kernel_time(const DeviceProfile& profile,
                            const KernelCounters& c, double raw_imbalance,
                            double lane_work_multiplier = 1.0);

/// kernel_time without the launch overhead: one phase of a cooperative
/// launch (hipsim/grid.h), which pays the overhead once for all phases.
TimingBreakdown phase_time(const DeviceProfile& profile,
                           const KernelCounters& c, double raw_imbalance,
                           double lane_work_multiplier = 1.0);

/// One grid-wide barrier of a cooperative launch: every resident block
/// arrives with one global atomic (serialized at the atomic throughput),
/// and the release reaches the waiters in one L2 round trip.
double grid_barrier_us(const DeviceProfile& profile, unsigned resident_blocks);

}  // namespace xbfs::sim
