// Kernel launch: schedules the grid's blocks onto the worker pool, merges
// per-worker counters, derives the per-virtual-CU load-imbalance factor and
// advances the owning stream's clock by the modelled kernel time.  A
// cooperative launch (hipsim/grid.h) runs the same block execution once per
// phase and pays the launch overhead once per device.
#include <algorithm>
#include <atomic>
#include <exception>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <vector>

#include "hipsim/device.h"
#include "hipsim/fault.h"
#include "hipsim/grid.h"
#include "hipsim/sanitizer.h"
#include "hipsim/schedcheck.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace xbfs::sim {

namespace {

/// Scalar "micro-time" of a block, used only to measure imbalance across
/// virtual CUs; absolute scale cancels in the max/mean ratio.
double block_micro_time(const DeviceProfile& p, const KernelCounters& before,
                        const KernelCounters& after) {
  const double fetch =
      static_cast<double>(after.fetch_bytes - before.fetch_bytes) /
      p.hbm_bytes_per_us;
  const double l2 =
      static_cast<double>(after.l2_hit_bytes - before.l2_hit_bytes) /
      p.l2_bytes_per_us;
  const double slots =
      static_cast<double>(after.lane_slots - before.lane_slots) /
      (p.lane_slots_per_us / p.num_cus);
  const double atomics =
      static_cast<double>(after.atomics - before.atomics) / p.atomics_per_us;
  return fetch + l2 + slots + atomics;
}

/// The kernel span of one launch or phase on its stream's lane, stamped with
/// the modelled interval and the rocprofiler-style counters.
/// `prof` supplies the level/tag context (null: none).
obs::Span kernel_span(std::string_view name, const Stream& s, int pid,
                      const Profiler* prof, double start_us,
                      const LaunchConfig& cfg, const LaunchResult& r) {
  obs::Span sp;
  sp.name = std::string(name);
  sp.category = "kernel";
  sp.track = "stream:" + s.name();
  sp.pid = pid;
  sp.sim_start_us = start_us;
  sp.sim_dur_us = r.time_us;
  sp.attr("grid_blocks", static_cast<std::uint64_t>(cfg.grid_blocks));
  sp.attr("block_threads", static_cast<std::uint64_t>(cfg.block_threads));
  sp.attr("fetch_kb", r.counters.fetch_kb());
  sp.attr("l2_hit_pct", r.counters.l2_hit_pct());
  sp.attr("mem_unit_busy_pct", r.timing.mem_unit_busy_pct());
  sp.attr("lane_efficiency", r.counters.lane_efficiency());
  if (prof != nullptr && prof->level() >= 0) {
    sp.attr("level", static_cast<std::int64_t>(prof->level()));
  }
  if (prof != nullptr && !prof->tag().empty()) sp.attr("tag", prof->tag());
  return sp;
}

void add_timing(TimingBreakdown& acc, const TimingBreakdown& t) {
  acc.t_hbm_us += t.t_hbm_us;
  acc.t_l2_us += t.t_l2_us;
  acc.t_latency_us += t.t_latency_us;
  acc.t_slots_us += t.t_slots_us;
  acc.t_atomic_us += t.t_atomic_us;
  acc.bottleneck_us += t.bottleneck_us;
}

}  // namespace

void Device::check_launch_config(std::string_view name,
                                 const LaunchConfig& cfg) const {
  if (cfg.grid_blocks < 1 || cfg.block_threads < 1 ||
      cfg.block_threads > profile_.max_block_threads) {
    throw std::invalid_argument(
        "invalid launch configuration for kernel '" + std::string(name) +
        "' (hipErrorInvalidConfiguration)");
  }
  if (active_grid_ != nullptr) {
    throw std::logic_error("launch of '" + std::string(name) +
                           "' while a cooperative launch is running; issue "
                           "it as a phase through the GridCtx");
  }
}

double Device::inject_launch_faults(Stream& s, std::string_view name) {
  FaultInjector& faults = FaultInjector::global();
  if (!faults.enabled()) return 0.0;
  if (faults.should_inject(FaultKind::KernelFault)) {
    obs::MetricsRegistry& fmx = obs::MetricsRegistry::global();
    if (fmx.enabled()) fmx.counter("sim.faults.kernel").add();
    obs::TraceSession& ftr = obs::TraceSession::global();
    if (ftr.enabled()) {
      ftr.instant("fault.kernel", "fault", "stream:" + s.name(), trace_pid_,
                  stream_begin(s));
    }
    obs::FlightRecorder::global().record(
        "sim", "kernel_fault", name, 0,
        static_cast<std::uint64_t>(trace_pid_));
    throw FaultInjected(FaultKind::KernelFault,
                        "injected kernel fault in '" + std::string(name) +
                            "' (hipErrorUnknown)");
  }
  if (faults.should_inject(FaultKind::LatencySpike)) {
    obs::MetricsRegistry& fmx = obs::MetricsRegistry::global();
    if (fmx.enabled()) fmx.counter("sim.faults.spike").add();
    return faults.latency_spike_us();
  }
  return 0.0;
}

Device::BlockRun Device::run_blocks(std::string_view name,
                                    const LaunchConfig& cfg,
                                    const KernelBody& body) {
  const unsigned n_workers = pool_->size();
  std::vector<KernelCounters> worker_counters(n_workers);
  std::vector<MemProbe> probes;
  probes.reserve(n_workers);
  for (unsigned w = 0; w < n_workers; ++w) {
    probes.emplace_back(l2_.get(), &worker_counters[w]);
  }

  // SimSan: when enabled, each worker gets a recorder so every simulated
  // access is checked and (in race mode) logged for post-launch analysis.
  Sanitizer& san = Sanitizer::global();
  const bool sanitize = san.enabled();
  std::vector<SanRecorder> san_recs;
  if (sanitize) {
    san_recs.resize(n_workers);
    for (SanRecorder& r : san_recs) san.init_recorder(r, name);
  }

  const unsigned n_vcus = profile_.num_cus;
  std::vector<std::atomic<double>> vcu_busy(n_vcus);
  for (auto& v : vcu_busy) v.store(0.0, std::memory_order_relaxed);

  Schedule* sched = sanitize ? SchedCheck::current() : nullptr;
  if (sched != nullptr) {
    // SchedCheck-controlled execution: the launching thread is inside an
    // exploration, so the grid's blocks run as controlled tasks (one
    // runnable at a time, preemptible at every sanitized access) instead
    // of free-running pool workers.  Each task gets its own counters,
    // probe, recorder and LDS arena — the pool's per-worker state is
    // untouched, so controlled and pooled launches can interleave freely
    // across schedules.
    const unsigned n_lanes = static_cast<unsigned>(std::min<std::uint64_t>(
        cfg.grid_blocks, SchedCheck::kMaxTasks));
    std::vector<KernelCounters> lane_counters(n_lanes);
    std::vector<MemProbe> lane_probes;
    lane_probes.reserve(n_lanes);
    for (unsigned l = 0; l < n_lanes; ++l) {
      lane_probes.emplace_back(l2_.get(), &lane_counters[l]);
    }
    std::vector<SanRecorder> lane_recs(n_lanes);
    for (SanRecorder& r : lane_recs) san.init_recorder(r, name);
    std::vector<std::unique_ptr<ShMem>> lane_shmem;
    lane_shmem.reserve(n_lanes);
    for (unsigned l = 0; l < n_lanes; ++l) {
      lane_shmem.push_back(std::make_unique<ShMem>(options_.lds_bytes));
    }
    sched->run_tasks(n_lanes, [&](std::size_t lane) {
      for (std::uint64_t block_id = lane; block_id < cfg.grid_blocks;
           block_id += n_lanes) {
        lane_probes[lane].begin_block();
        ExecCtx ctx(&lane_probes[lane], &profile_, &lane_recs[lane],
                    static_cast<unsigned>(block_id));
        ShMem& shmem = *lane_shmem[lane];
        shmem.reset();
        const KernelCounters before = lane_counters[lane];
        BlockCtx blk(&ctx, &shmem, static_cast<unsigned>(block_id),
                     cfg.grid_blocks, cfg.block_threads);
        body(blk);
        const double dt =
            block_micro_time(profile_, before, lane_counters[lane]);
        vcu_busy[block_id % n_vcus].fetch_add(dt, std::memory_order_relaxed);
      }
    });
    san_recs = std::move(lane_recs);
    for (const KernelCounters& lc : lane_counters) worker_counters[0] += lc;
  } else {
    pool_->parallel_for(
        cfg.grid_blocks, [&](unsigned worker, std::uint64_t block_id) {
          probes[worker].begin_block();
          ExecCtx ctx(&probes[worker], &profile_,
                      sanitize ? &san_recs[worker] : nullptr,
                      static_cast<unsigned>(block_id));
          ShMem& shmem = *worker_shmem_[worker];
          shmem.reset();
          const KernelCounters before = worker_counters[worker];
          BlockCtx blk(&ctx, &shmem, static_cast<unsigned>(block_id),
                       cfg.grid_blocks, cfg.block_threads);
          body(blk);
          const double dt =
              block_micro_time(profile_, before, worker_counters[worker]);
          vcu_busy[block_id % n_vcus].fetch_add(dt,
                                                std::memory_order_relaxed);
        });
  }

  BlockRun run;
  for (const KernelCounters& wc : worker_counters) run.counters += wc;
  run.san_logs = std::move(san_recs);

  // Imbalance: critical-path CU over the mean across CUs that could have
  // been used (all of them once the grid saturates the device).
  double max_busy = 0.0, sum_busy = 0.0;
  for (const auto& v : vcu_busy) {
    const double b = v.load(std::memory_order_relaxed);
    max_busy = std::max(max_busy, b);
    sum_busy += b;
  }
  const unsigned used_vcus = std::min<unsigned>(n_vcus, cfg.grid_blocks);
  const double mean_busy = used_vcus > 0 ? sum_busy / used_vcus : 0.0;
  run.raw_imbalance = mean_busy > 0.0 ? max_busy / mean_busy : 1.0;
  return run;
}

LaunchResult Device::launch(LaunchTarget on, std::string_view name,
                            const LaunchConfig& cfg, const KernelBody& body) {
  if (GridCtx* grid = on.grid()) {
    if (&grid->device() != this) {
      throw std::invalid_argument("kernel '" + std::string(name) +
                                  "' issued on another device's grid");
    }
    return grid->phase(name, cfg, body);
  }
  Stream& s = *on.stream();
  check_launch_config(name, cfg);
  const double spike_us = inject_launch_faults(s, name);
  BlockRun run = run_blocks(name, cfg, body);
  Sanitizer::global().analyze_launch(name, run.san_logs);

  LaunchResult result;
  result.counters = run.counters;
  result.timing = kernel_time(profile_, result.counters, run.raw_imbalance,
                              cfg.lane_work_multiplier);
  if (!first_launch_done_) {
    // HIP module load / runtime warm-up lands on the first kernel.
    result.timing.total_us += profile_.first_launch_us;
    first_launch_done_ = true;
  }
  // An injected latency spike lands on the modelled clock like a real SERR
  // retrain or preemption blip would: the kernel simply takes longer.
  result.timing.total_us += spike_us;
  result.time_us = result.timing.total_us;

  const double sim_start_us = stream_begin(s);
  s.t_end_ = sim_start_us + result.time_us;

  // A faulted stand-alone launch threw above and attributes nothing.
  bill_launch(result);

  if (profiler_.enabled()) {
    LaunchRecord rec;
    rec.kernel = std::string(name);
    rec.tag = profiler_.tag();
    rec.level = profiler_.level();
    rec.counters = result.counters;
    rec.timing = result.timing;
    profiler_.record(std::move(rec));
  }

  // Every launch is a trace span on its stream's lane — callers get kernel
  // attribution without remembering to set any context.
  obs::TraceSession& tr = obs::TraceSession::global();
  if (tr.enabled()) {
    tr.complete(kernel_span(name, s, trace_pid_, &profiler_, sim_start_us,
                            cfg, result));
  }
  return result;
}

void Device::bill_launch(const LaunchResult& r) {
  // Bill the launch to whoever is being served right now (per-query
  // attribution).
  if (attr_sink_ != nullptr) {
    attr_sink_->counters += r.counters;
    attr_sink_->launches += 1;
    attr_sink_->modelled_us += r.time_us;
  }
  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  if (mx.enabled()) {
    mx.counter("sim.launches").add();
    mx.counter("sim.fetch_bytes").add(r.counters.fetch_bytes);
    mx.counter("sim.atomics").add(r.counters.atomics);
    mx.counter("sim.lane_slots").add(r.counters.lane_slots);
    mx.counter("sim.active_lanes").add(r.counters.active_lanes);
    mx.histogram("sim.kernel_us").observe(r.time_us);
  }
}

// --- cooperative launches ----------------------------------------------------

GridCtx::GridCtx(Device& dev, Stream& s, std::string_view name,
                 const LaunchConfig& cfg, double start_us, double launch_us)
    : dev_(dev),
      stream_(s),
      name_(name),
      cfg_(cfg),
      start_us_(start_us),
      launch_us_(launch_us),
      barrier_us_(grid_barrier_us(dev.profile(), cfg.grid_blocks)),
      elapsed_us_(launch_us) {}

LaunchResult GridCtx::run_phase(std::string_view name, const LaunchConfig& cfg,
                                const Device::KernelBody& body, bool row) {
  if (cfg.grid_blocks < 1 || cfg.grid_blocks > cfg_.grid_blocks ||
      cfg.block_threads != cfg_.block_threads) {
    throw std::invalid_argument(
        "phase '" + std::string(name) + "' of cooperative launch '" + name_ +
        "' needs " + std::to_string(cfg.grid_blocks) + " blocks of " +
        std::to_string(cfg.block_threads) + " threads; the resident grid is " +
        std::to_string(cfg_.grid_blocks) + " blocks of " +
        std::to_string(cfg_.block_threads));
  }
  // A phase right behind a uniform one is the branch every block takes on
  // the value it just computed: no barrier between them, so SimSan analyzes
  // the two as one session.  A phase right behind an exchange is ordered by
  // the exchange's multi-grid sync, which already paid its barrier.
  const bool fused = after_uniform_ && row;
  if (phases_ > 0 && !fused && !after_exchange_) {
    elapsed_us_ += barrier_us_;
    ++barriers_;
    flush_san();
  }
  after_exchange_ = false;
  Device::BlockRun run = dev_.run_blocks(name, cfg, body);
  if (!row) {
    held_name_ = name;
    held_logs_ = std::move(run.san_logs);
  } else if (fused && !held_logs_.empty()) {
    std::move(held_logs_.begin(), held_logs_.end(),
              std::back_inserter(run.san_logs));
    held_logs_.clear();
    Sanitizer::global().analyze_launch(held_name_ + "+" + std::string(name),
                                       run.san_logs);
  } else {
    Sanitizer::global().analyze_launch(name, run.san_logs);
  }
  after_uniform_ = !row;
  LaunchResult r;
  r.counters = run.counters;
  r.timing = phase_time(dev_.profile_, r.counters, run.raw_imbalance,
                        cfg.lane_work_multiplier);
  r.time_us = r.timing.total_us;
  const double start = now_us();
  elapsed_us_ += r.time_us;
  ++phases_;
  counters_ += r.counters;
  add_timing(timing_, r.timing);
  if (!row) return r;

  const bool launched = !launch_billed_;
  launch_billed_ = true;
  Profiler& prof = dev_.profiler_;
  if (prof.enabled()) {
    LaunchRecord rec;
    rec.kernel = std::string(name);
    rec.tag = prof.tag();
    rec.level = prof.level();
    rec.launched = launched;
    rec.counters = r.counters;
    rec.timing = r.timing;
    if (launched) rec.timing.total_us = launch_us_ + rec.timing.total_us;
    prof.record(std::move(rec));
  }
  obs::TraceSession& tr = obs::TraceSession::global();
  if (tr.enabled()) {
    obs::Span sp =
        kernel_span(name, stream_, dev_.trace_pid_, &prof, start, cfg, r);
    sp.attr("phase", static_cast<std::uint64_t>(phases_ - 1));
    tr.complete(std::move(sp));
  }
  return r;
}

void GridCtx::flush_san() {
  Sanitizer::global().analyze_launch(held_name_, held_logs_);
  held_logs_.clear();
}

LaunchResult Device::launch_grid(Stream& s, std::string_view name,
                                 const LaunchConfig& cfg,
                                 const GridProgram& program) {
  return launch_grid({{this, &s, cfg}}, name,
                     [&](MultiGridCtx& m) { program(m.grid(0)); })
      .front();
}

std::vector<LaunchResult> Device::launch_grid(
    const std::vector<GridMember>& members, std::string_view name,
    const MultiGridProgram& program) {
  if (members.empty()) {
    throw std::invalid_argument("cooperative launch '" + std::string(name) +
                                "' has no devices");
  }
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (members[j].device == members[i].device) {
        throw std::invalid_argument("cooperative launch '" +
                                    std::string(name) +
                                    "' names one device twice");
      }
    }
    members[i].device->check_launch_config(name, members[i].cfg);
  }
  // Faults are drawn at the launch, once per device.  An injected kernel
  // fault surfaces the way a device-side error in a resident kernel does:
  // the kernel runs, the error is reported when it ends, and the work the
  // attempt consumed is billed like any other.
  std::exception_ptr fault;
  std::vector<double> launch_us(members.size());
  double start_us = 0.0;
  for (std::size_t i = 0; i < members.size(); ++i) {
    Device& d = *members[i].device;
    launch_us[i] = d.profile_.kernel_launch_us;
    try {
      launch_us[i] += d.inject_launch_faults(*members[i].stream, name);
    } catch (const FaultInjected& f) {
      if (!fault) fault = std::make_exception_ptr(MultiGridFault(i, f));
    }
    if (!d.first_launch_done_) {
      launch_us[i] += d.profile_.first_launch_us;
      d.first_launch_done_ = true;
    }
    start_us = std::max(start_us, d.stream_begin(*members[i].stream));
  }

  std::vector<std::unique_ptr<GridCtx>> grids;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const GridMember& m = members[i];
    grids.emplace_back(new GridCtx(*m.device, *m.stream, name, m.cfg,
                                   start_us, launch_us[i]));
    m.device->active_grid_ = grids.back().get();
  }
  MultiGridCtx ctx(std::move(grids));
  try {
    program(ctx);
  } catch (...) {
    for (const GridMember& m : members) m.device->active_grid_ = nullptr;
    throw;
  }
  std::vector<LaunchResult> results;
  for (std::size_t i = 0; i < members.size(); ++i) {
    members[i].device->active_grid_ = nullptr;
    results.push_back(members[i].device->end_grid(ctx.grid(i)));
  }
  if (fault) std::rethrow_exception(fault);
  return results;
}

LaunchResult Device::end_grid(GridCtx& grid) {
  grid.flush_san();
  LaunchResult result;
  result.counters = grid.counters_;
  result.timing = grid.timing_;
  result.time_us = grid.elapsed_us_;
  result.timing.total_us = result.time_us;
  grid.stream_.t_end_ = grid.start_us_ + result.time_us;
  bill_launch(result);

  obs::TraceSession& tr = obs::TraceSession::global();
  if (tr.enabled()) {
    obs::Span sp = kernel_span(grid.name_, grid.stream_, trace_pid_, nullptr,
                               grid.start_us_, grid.cfg_, result);
    sp.attr("cooperative", true);
    sp.attr("phases", static_cast<std::uint64_t>(grid.phases_));
    sp.attr("barriers", static_cast<std::uint64_t>(grid.barriers_));
    tr.complete(std::move(sp));
  }
  return result;
}

double MultiGridCtx::now_us() const {
  double t = 0.0;
  for (const auto& g : grids_) t = std::max(t, g->now_us());
  return t;
}

double MultiGridCtx::exchange(std::string_view name,
                              const std::function<double()>& collective) {
  const double fabric_us = collective();
  double arrival_us = 0.0;
  for (const auto& g : grids_) {
    arrival_us = std::max(arrival_us, g->now_us() + g->barrier_us_);
  }
  obs::TraceSession& tr = obs::TraceSession::global();
  for (const auto& g : grids_) {
    g->elapsed_us_ = arrival_us + fabric_us - g->start_us_;
    ++g->barriers_;
    g->flush_san();
    g->after_uniform_ = false;
    g->after_exchange_ = true;
    if (tr.enabled() && fabric_us > 0.0) {
      obs::Span sp;
      sp.name = std::string(name);
      sp.category = "comm";
      sp.track = "stream:" + g->stream_.name();
      sp.pid = g->dev_.trace_pid();
      sp.sim_start_us = arrival_us;
      sp.sim_dur_us = fabric_us;
      tr.complete(std::move(sp));
    }
  }
  return fabric_us;
}

}  // namespace xbfs::sim
