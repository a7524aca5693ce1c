#include "obs/stat_table.h"

#include <cstdio>
#include <utility>

namespace xbfs::obs {

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

StatExport::StatExport(RunRecord& r, std::string metric_prefix,
                       std::string key_prefix)
    : r_(r),
      mx_(MetricsRegistry::global()),
      metric_prefix_(std::move(metric_prefix)),
      key_prefix_(std::move(key_prefix)) {}

std::string StatExport::metric(const StatDef& d) const {
  if (!mx_.enabled() || d.clock == StatClock::Config) return {};
  return metric_prefix_ + "." + key_prefix_ + d.key;
}

void StatExport::operator()(const StatDef& d, std::uint64_t v) const {
  r_.config.emplace_back(key_prefix_ + d.key, std::to_string(v));
  if (const std::string m = metric(d); !m.empty()) {
    if (d.kind == StatKind::Counter) {
      mx_.counter(m).add(v);
    } else {
      mx_.gauge(m).set(static_cast<double>(v));
    }
  }
}

void StatExport::operator()(const StatDef& d, double v) const {
  r_.config.emplace_back(key_prefix_ + d.key, fmt_double(v));
  if (const std::string m = metric(d); !m.empty()) mx_.gauge(m).set(v);
}

void StatExport::operator()(const StatDef& d, bool v) const {
  r_.config.emplace_back(key_prefix_ + d.key, v ? "1" : "0");
  if (const std::string m = metric(d); !m.empty()) mx_.gauge(m).set(v);
}

void StatExport::operator()(const StatDef& d, const std::string& v) const {
  r_.config.emplace_back(key_prefix_ + d.key, v);
}

void StatExport::operator()(const StatDef& d, const Histogram& h) const {
  if (const std::string m = metric(d); !m.empty()) mx_.histogram(m).merge(h);
}

}  // namespace xbfs::obs
