#include "hipsim/profiler.h"

#include <algorithm>
#include <iomanip>
#include <map>
#include <ostream>

namespace xbfs::sim {

std::vector<LaunchRecord> Profiler::matching(const std::string& substr) const {
  std::vector<LaunchRecord> out;
  for (const LaunchRecord& r : records_) {
    if (substr.empty() || r.kernel.find(substr) != std::string::npos) {
      out.push_back(r);
    }
  }
  return out;
}

double Profiler::total_runtime_ms(const std::string& substr) const {
  double sum = 0;
  for (const LaunchRecord& r : records_) {
    if (substr.empty() || r.kernel.find(substr) != std::string::npos) {
      sum += r.runtime_ms();
    }
  }
  return sum;
}

double Profiler::total_fetch_kb(const std::string& substr) const {
  double sum = 0;
  for (const LaunchRecord& r : records_) {
    if (substr.empty() || r.kernel.find(substr) != std::string::npos) {
      sum += r.fetch_kb();
    }
  }
  return sum;
}

void Profiler::print_table(std::ostream& os) const {
  os << std::left << std::setw(34) << "Kernel" << std::setw(7) << "Level"
     << std::right << std::setw(13) << "Runtime(ms)" << std::setw(9) << "L2(%)"
     << std::setw(11) << "MBusy(%)" << std::setw(16) << "FS(KB)" << "  Tag\n";
  for (const LaunchRecord& r : records_) {
    os << std::left << std::setw(34) << r.kernel << std::setw(7) << r.level
       << std::right << std::fixed << std::setprecision(3) << std::setw(13)
       << r.runtime_ms() << std::setw(9) << r.l2_pct() << std::setw(11)
       << r.mbusy_pct() << std::setw(16) << r.fetch_kb() << "  " << r.tag
       << "\n";
  }
}

std::vector<Profiler::KernelTotal> Profiler::aggregate_by_kernel() const {
  std::map<std::string, KernelTotal> acc;
  for (const LaunchRecord& r : records_) {
    KernelTotal& t = acc[r.kernel];
    t.kernel = r.kernel;
    t.runtime_ms += r.runtime_ms();
    t.fetch_kb += r.fetch_kb();
    if (r.launched) t.launches += 1;
  }
  std::vector<KernelTotal> out;
  out.reserve(acc.size());
  for (auto& [_, t] : acc) out.push_back(std::move(t));
  std::sort(out.begin(), out.end(), [](const KernelTotal& a,
                                       const KernelTotal& b) {
    return a.runtime_ms > b.runtime_ms;
  });
  return out;
}

namespace {

/// Free-form fields (the caller-set tag) must not break the CSV shape:
/// separators and newlines are folded to spaces so every row always has
/// exactly as many fields as the header.
std::string csv_sanitize(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (c == ',' || c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

}  // namespace

void Profiler::write_csv(std::ostream& os) const {
  os << "kernel,level,tag,runtime_ms,l2_hit_pct,mem_unit_busy_pct,fetch_kb,"
        "mem_reads,mem_writes,atomics,lane_slots,active_lanes\n";
  for (const LaunchRecord& r : records_) {
    os << csv_sanitize(r.kernel) << ',' << r.level << ','
       << csv_sanitize(r.tag) << ',' << r.runtime_ms()
       << ',' << r.l2_pct() << ',' << r.mbusy_pct() << ',' << r.fetch_kb()
       << ',' << r.counters.mem_reads << ',' << r.counters.mem_writes << ','
       << r.counters.atomics << ',' << r.counters.lane_slots << ','
       << r.counters.active_lanes << '\n';
  }
}

}  // namespace xbfs::sim
