#include "hipsim/timing.h"

#include <algorithm>

namespace xbfs::sim {

TimingBreakdown phase_time(const DeviceProfile& profile,
                           const KernelCounters& c, double raw_imbalance,
                           double lane_work_multiplier) {
  TimingBreakdown t;
  const double hbm_bytes =
      static_cast<double>(c.fetch_bytes + c.writeback_bytes);
  t.t_hbm_us = hbm_bytes / profile.hbm_bytes_per_us;
  t.t_l2_us =
      static_cast<double>(c.l2_hit_bytes) / profile.l2_bytes_per_us;
  t.t_slots_us =
      static_cast<double>(c.lane_slots) / profile.lane_slots_per_us;
  t.t_atomic_us = static_cast<double>(c.atomics) / profile.atomics_per_us;
  // Dependent-access latency: every probe occupies a memory lane for its
  // full latency; the device hides at most mem_parallelism of them at once.
  const double latency_cycles =
      static_cast<double>(c.l2_hits) * profile.l2_hit_latency_cycles +
      static_cast<double>(c.l2_misses) * profile.hbm_latency_cycles;
  t.t_latency_us = latency_cycles /
                   (profile.clock_ghz * 1000.0 * profile.mem_parallelism);

  t.bottleneck_us = std::max(
      {t.t_hbm_us, t.t_l2_us, t.t_latency_us, t.t_slots_us, t.t_atomic_us});
  t.imbalance = std::clamp(raw_imbalance, 1.0, 8.0);
  // lane_work_multiplier is a whole-kernel slowdown knob modelling measured
  // compiler effects (register spilling: hipcc +17%, missing -O3 up to 10x
  // in the paper) that the source-level simulation cannot derive.
  t.total_us = t.bottleneck_us * t.imbalance * lane_work_multiplier;
  return t;
}

TimingBreakdown kernel_time(const DeviceProfile& profile,
                            const KernelCounters& c, double raw_imbalance,
                            double lane_work_multiplier) {
  TimingBreakdown t =
      phase_time(profile, c, raw_imbalance, lane_work_multiplier);
  t.total_us = profile.kernel_launch_us + t.total_us;
  return t;
}

double grid_barrier_us(const DeviceProfile& profile,
                       unsigned resident_blocks) {
  return static_cast<double>(resident_blocks) / profile.atomics_per_us +
         profile.l2_hit_latency_cycles / (profile.clock_ghz * 1000.0);
}

}  // namespace xbfs::sim
