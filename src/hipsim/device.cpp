#include "hipsim/device.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <stdexcept>
#include <string>

#include "hipsim/chk_point.h"
#include "hipsim/fault.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace xbfs::sim {

namespace {
/// pid 0 is the host/coordinator lane; devices start at 1.
std::atomic<int> g_next_trace_pid{1};
}  // namespace

Device::Device(DeviceProfile profile, SimOptions options)
    : profile_(std::move(profile)), options_(options) {
  l2_ = std::make_unique<L2Model>(profile_, L2Model::kShards);
  pool_ = std::make_unique<ThreadPool>(options_.num_workers);
  worker_shmem_.reserve(pool_->size());
  for (unsigned i = 0; i < pool_->size(); ++i) {
    worker_shmem_.push_back(std::make_unique<ShMem>(options_.lds_bytes));
  }
  streams_.emplace_back(this, "default");
  trace_pid_ = g_next_trace_pid.fetch_add(1, std::memory_order_relaxed);
  set_trace_label(profile_.name + " #" + std::to_string(trace_pid_));
}

void Device::set_trace_label(const std::string& label) {
  // Always registered (construction-time cost only), so labels are present
  // even when tracing is enabled after the device was built.
  obs::TraceSession::global().set_process_label(trace_pid_, label);
}

Device::~Device() = default;

std::uint64_t Device::reserve_addr(std::uint64_t bytes) {
  // Line-align every allocation so buffers never share a cache line.
  const std::uint64_t line = profile_.l2_line_bytes;
  const std::uint64_t addr = (next_addr_ + line - 1) / line * line;
  if (addr + bytes > profile_.device_mem_bytes) {
    throw std::bad_alloc();  // simulated HBM exhausted (hipErrorOutOfMemory)
  }
  next_addr_ = addr + bytes;
  return addr;
}

Stream& Device::create_stream(std::string name) {
  streams_.emplace_back(this, std::move(name));
  return streams_.back();
}

double Device::stream_begin(Stream& s) const {
  return std::max(s.t_end_, t_floor_);
}

void Device::maybe_corrupt_copy(const char* name) {
  FaultInjector& faults = FaultInjector::global();
  if (!faults.enabled()) return;
  if (!faults.should_inject(FaultKind::MemcpyCorruption)) return;
  pending_corruption_ = true;
  ++corrupted_copies_;
  obs::MetricsRegistry& mx = obs::MetricsRegistry::global();
  if (mx.enabled()) mx.counter("sim.faults.memcpy").add();
  obs::TraceSession& tr = obs::TraceSession::global();
  if (tr.enabled()) {
    tr.instant(std::string("fault.") + name, "fault", "stream:default",
               trace_pid_, now_us());
  }
  obs::FlightRecorder::global().record(
      "sim", "memcpy_corrupt", name, 0,
      static_cast<std::uint64_t>(trace_pid_));
}

void Device::check_no_grid(const char* what) const {
  if (active_grid_ != nullptr) {
    throw std::logic_error(std::string(what) +
                           " while a cooperative launch is running");
  }
}

double Device::memcpy_h2d(Stream& s, std::uint64_t bytes) {
  check_no_grid("memcpy_h2d");
  // SchedCheck yield point: a controlled task may be preempted between a
  // peer's kernel and the copy that publishes its data — the window a
  // missing synchronize() leaves open.
  chk_point("sim.memcpy.h2d", bytes);
  const double t = profile_.memcpy_overhead_us +
                   static_cast<double>(bytes) / profile_.h2d_bytes_per_us;
  const double begin = stream_begin(s);
  s.t_end_ = begin + t;
  if (attr_sink_ != nullptr) {
    attr_sink_->memcpys += 1;
    attr_sink_->modelled_us += t;
  }
  trace_memcpy("memcpy_h2d", s, begin, t, bytes);
  maybe_corrupt_copy("memcpy_h2d");
  return t;
}

double Device::memcpy_d2h(Stream& s, std::uint64_t bytes) {
  check_no_grid("memcpy_d2h");
  chk_point("sim.memcpy.d2h", bytes);
  const double t = profile_.memcpy_overhead_us +
                   static_cast<double>(bytes) / profile_.d2h_bytes_per_us;
  const double begin = stream_begin(s);
  s.t_end_ = begin + t;
  if (attr_sink_ != nullptr) {
    attr_sink_->memcpys += 1;
    attr_sink_->modelled_us += t;
  }
  trace_memcpy("memcpy_d2h", s, begin, t, bytes);
  maybe_corrupt_copy("memcpy_d2h");
  return t;
}

void Device::trace_memcpy(const char* name, const Stream& s, double start_us,
                          double dur_us, std::uint64_t bytes) const {
  obs::TraceSession& tr = obs::TraceSession::global();
  if (!tr.enabled()) return;
  obs::Span sp;
  sp.name = name;
  sp.category = "mem";
  sp.track = "stream:" + s.name();
  sp.pid = trace_pid_;
  sp.sim_start_us = start_us;
  sp.sim_dur_us = dur_us;
  sp.attr("bytes", bytes);
  tr.complete(std::move(sp));
}

void Device::synchronize() {
  check_no_grid("synchronize");
  if (attr_sink_ != nullptr) attr_sink_->syncs += 1;
  double max_end = t_floor_;
  for (const Stream& s : streams_) max_end = std::max(max_end, s.t_end_);
  t_floor_ = max_end + profile_.device_sync_us;
  for (Stream& s : streams_) s.t_end_ = t_floor_;
}

void Device::join_streams(const std::vector<Stream*>& ss) {
  if (ss.empty()) return;
  double max_end = t_floor_;
  for (Stream* s : ss) max_end = std::max(max_end, s->t_end_);
  const double joined =
      max_end + profile_.stream_join_us * static_cast<double>(ss.size() - 1);
  for (Stream* s : ss) s->t_end_ = joined;
}

void Device::host_work(double us) {
  // Host work serializes with everything previously submitted.
  synchronize();
  t_floor_ += us;
  for (Stream& s : streams_) s.t_end_ = t_floor_;
}

double Device::now_us() const {
  double t = t_floor_;
  for (const Stream& s : streams_) t = std::max(t, s.t_end_);
  return t;
}

void Device::reset_clock() {
  t_floor_ = 0;
  for (Stream& s : streams_) s.t_end_ = 0;
}

void Device::warmup() {
  first_launch_done_ = true;
}

void Event::record(const Stream& s) {
  t_us_ = s.t_end();
  recorded_ = true;
}

void Stream::synchronize() {
  device_->check_no_grid("synchronize");
  if (device_->attr_sink_ != nullptr) device_->attr_sink_->syncs += 1;
  device_->t_floor_ =
      std::max(device_->t_floor_, t_end_) + device_->profile_.device_sync_us;
  t_end_ = device_->t_floor_;
}

}  // namespace xbfs::sim
